open Entangle_egraph

type rung = {
  scale : int;
  scheduler : Runner.scheduler_kind;
  incremental : bool;
}

let default_escalation =
  [
    { scale = 2; scheduler = Runner.Backoff; incremental = true };
    { scale = 4; scheduler = Runner.Simple; incremental = false };
  ]

type t = {
  frontier_optimization : bool;
  prune_equivalent : bool;
  max_alternates : int;
  limits : Runner.limits;
  lint_graphs : bool;
  check_egraph_invariants : bool;
  scheduler : Runner.scheduler_kind;
  incremental_matching : bool;
  trace : Entangle_trace.Sink.t;
  op_deadline_s : float option;
  check_deadline_s : float option;
  escalation : rung list;
  keep_going : bool;
  cache : Entangle_cache.Cache.t option;
  cache_verify : bool;
  cache_namespace : string;
}

let default =
  {
    frontier_optimization = true;
    prune_equivalent = true;
    max_alternates = 4;
    limits = Runner.default_limits;
    lint_graphs = true;
    check_egraph_invariants = false;
    scheduler = Runner.Backoff;
    incremental_matching = true;
    trace = Entangle_trace.Sink.null;
    op_deadline_s = None;
    check_deadline_s = None;
    escalation = default_escalation;
    keep_going = false;
    cache = None;
    cache_verify = false;
    cache_namespace = "";
  }

let no_frontier = { default with frontier_optimization = false }
let no_pruning = { default with prune_equivalent = false; max_alternates = 8 }

let simple_runner =
  { default with scheduler = Runner.Simple; incremental_matching = false }

(* Builders: pipeline-friendly (`Config.default |> with_scheduler ...`)
   so call sites stop open-coding record updates as the flag set
   grows. *)
let with_limits limits t = { t with limits }
let with_scheduler scheduler t = { t with scheduler }
let with_incremental_matching incremental_matching t =
  { t with incremental_matching }
let with_trace trace t = { t with trace }
let with_op_deadline op_deadline_s t = { t with op_deadline_s }
let with_check_deadline check_deadline_s t = { t with check_deadline_s }
let with_escalation escalation t = { t with escalation }
let with_keep_going keep_going t = { t with keep_going }
let with_cache cache t = { t with cache }
let with_cache_verify cache_verify t = { t with cache_verify }
let with_cache_namespace cache_namespace t = { t with cache_namespace }

(* What the certificate cache must key on: every configuration field
   that can change which mappings the per-operator search finds or
   whether saturation completes. Wall-clock and heap budgets are
   excluded on purpose — exhausting them yields an [Inconclusive]
   verdict, which is never cached, so they cannot change a cached
   outcome. [lint_graphs], [keep_going], [trace] and
   [check_egraph_invariants] do not influence the search either (the
   invariant audit can only raise, which is an uncacheable [Internal]
   verdict). *)
let search_fingerprint t =
  let scheduler_name = function
    | Runner.Simple -> "simple"
    | Runner.Backoff -> "backoff"
  in
  let rung (r : rung) =
    Fmt.str "%d:%s:%b" r.scale (scheduler_name r.scheduler) r.incremental
  in
  Fmt.str
    "search/1;frontier=%b;prune=%b;alts=%d;iters=%d;nodes=%d;classes=%d;sched=%s;incr=%b;esc=%s"
    t.frontier_optimization t.prune_equivalent t.max_alternates
    t.limits.Runner.max_iterations t.limits.Runner.max_nodes
    t.limits.Runner.max_classes
    (scheduler_name t.scheduler)
    t.incremental_matching
    (String.concat "," (List.map rung t.escalation))
