(* Counters are atomic and the rule-hit table mutex-guarded so one
   aggregator can be teed behind sinks on several threads or domains
   at once. *)
type t = {
  operators : int Atomic.t;
  iterations : int Atomic.t;
  matches : int Atomic.t;
  unions : int Atomic.t;
  nodes_peak : int Atomic.t;
  classes_peak : int Atomic.t;
  retries : int Atomic.t;
  budget_trips : int Atomic.t;
  cache_hits : int Atomic.t;
  cache_misses : int Atomic.t;
  cache_replays_failed : int Atomic.t;
  collect_s : float Atomic.t;
  apply_s : float Atomic.t;
  rebuild_s : float Atomic.t;
  minor_words : int Atomic.t;
  hits : (string, int) Hashtbl.t;
  hits_lock : Mutex.t;
}

let create () =
  {
    operators = Atomic.make 0;
    iterations = Atomic.make 0;
    matches = Atomic.make 0;
    unions = Atomic.make 0;
    nodes_peak = Atomic.make 0;
    classes_peak = Atomic.make 0;
    retries = Atomic.make 0;
    budget_trips = Atomic.make 0;
    cache_hits = Atomic.make 0;
    cache_misses = Atomic.make 0;
    cache_replays_failed = Atomic.make 0;
    collect_s = Atomic.make 0.;
    apply_s = Atomic.make 0.;
    rebuild_s = Atomic.make 0.;
    minor_words = Atomic.make 0;
    hits = Hashtbl.create 64;
    hits_lock = Mutex.create ();
  }

let arg ev key = Option.value (Event.arg_int ev key) ~default:0
let add a n = ignore (Atomic.fetch_and_add a n)

let rec add_float a ev key =
  let cur = Atomic.get a in
  let sum = cur +. Option.value (Event.arg_float ev key) ~default:0. in
  if not (Atomic.compare_and_set a cur sum) then add_float a ev key

let rec update_max a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then update_max a v

let fold t (ev : Event.t) =
  match (ev.phase, ev.cat) with
  | Event.End, "operator" ->
      if Event.arg_bool ev "processed" = Some true then Atomic.incr t.operators
  | Event.End, "iteration" ->
      Atomic.incr t.iterations;
      add t.matches (arg ev "matches");
      add t.unions (arg ev "unions");
      add_float t.collect_s ev "collect_s";
      add_float t.apply_s ev "apply_s";
      add_float t.rebuild_s ev "rebuild_s";
      add t.minor_words (arg ev "minor_words")
  | Event.Counter, "egraph" ->
      update_max t.nodes_peak (arg ev "nodes");
      update_max t.classes_peak (arg ev "classes")
  | Event.End, "retry" -> Atomic.incr t.retries
  | Event.Instant, "budget" when ev.name = "budget-trip" ->
      Atomic.incr t.budget_trips
  | Event.Instant, "cache" -> (
      match ev.name with
      | "cache-hit" -> Atomic.incr t.cache_hits
      | "cache-miss" -> Atomic.incr t.cache_misses
      | "cache-replay-failed" -> Atomic.incr t.cache_replays_failed
      | _ -> ())
  | Event.Instant, "rule" when ev.name = "rule-hit" -> (
      match Event.arg_str ev "rule" with
      | None -> ()
      | Some rule ->
          Mutex.lock t.hits_lock;
          let prev = Option.value (Hashtbl.find_opt t.hits rule) ~default:0 in
          Hashtbl.replace t.hits rule (prev + arg ev "hits");
          Mutex.unlock t.hits_lock)
  | _ -> ()

let sink t = Sink.make (fold t)
let operators t = Atomic.get t.operators
let iterations t = Atomic.get t.iterations
let matches t = Atomic.get t.matches
let unions t = Atomic.get t.unions
let nodes_peak t = Atomic.get t.nodes_peak
let classes_peak t = Atomic.get t.classes_peak
let retries t = Atomic.get t.retries
let budget_trips t = Atomic.get t.budget_trips
let cache_hits t = Atomic.get t.cache_hits
let cache_misses t = Atomic.get t.cache_misses
let cache_replays_failed t = Atomic.get t.cache_replays_failed
let collect_s t = Atomic.get t.collect_s
let apply_s t = Atomic.get t.apply_s
let rebuild_s t = Atomic.get t.rebuild_s
let minor_words t = Atomic.get t.minor_words

let rule_hits t =
  Mutex.lock t.hits_lock;
  let items = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.hits [] in
  Mutex.unlock t.hits_lock;
  List.sort (fun (a, _) (b, _) -> String.compare a b) items
