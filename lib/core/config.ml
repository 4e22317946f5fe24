open Entangle_egraph

let default_escalation = [ 2; 4 ]

type t = {
  frontier_optimization : bool;
  limits : Runner.limits;
  trace : Entangle_trace.Sink.t;
  op_deadline_s : float option;
  check_deadline_s : float option;
  escalation : int list;
  keep_going : bool;
  cache : Entangle_cache.Cache.t option;
  cache_namespace : string;
}

let default =
  {
    frontier_optimization = true;
    limits = Runner.default_limits;
    trace = Entangle_trace.Sink.null;
    op_deadline_s = None;
    check_deadline_s = None;
    escalation = default_escalation;
    keep_going = false;
    cache = None;
    cache_namespace = "";
  }

let no_frontier = { default with frontier_optimization = false }

(* Builders: pipeline-friendly (`Config.default |> with_limits ...`)
   so call sites stop open-coding record updates as the flag set
   grows. *)
let with_limits limits t = { t with limits }
let with_trace trace t = { t with trace }
let with_op_deadline op_deadline_s t = { t with op_deadline_s }
let with_check_deadline check_deadline_s t = { t with check_deadline_s }
let with_escalation escalation t = { t with escalation }
let with_keep_going keep_going t = { t with keep_going }
let with_cache cache t = { t with cache }
let with_cache_namespace cache_namespace t = { t with cache_namespace }

(* What the certificate cache must key on: every configuration field
   that can change which mappings the per-operator search finds or
   whether saturation completes. Wall-clock budgets are excluded on
   purpose — a search one stops is never cached, so they cannot change
   a cached outcome. [keep_going] and [trace] do not influence the
   search either. *)
let search_fingerprint t =
  Fmt.str "search/2;frontier=%b;iters=%d;nodes=%d;classes=%d;esc=%s"
    t.frontier_optimization t.limits.Runner.max_iterations
    t.limits.Runner.max_nodes t.limits.Runner.max_classes
    (String.concat "," (List.map string_of_int t.escalation))
