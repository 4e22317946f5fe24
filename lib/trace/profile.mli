(** Profile summaries: the [--profile] table.

    Folds a collected event list into per-operator and per-rule
    aggregates — where the wall time went (operator spans, their
    frontier/saturate/extract phases and the cache's lookups and
    store write) and which lemmas did the work
    (rule-hit instants, the paper's Figure 6 data). *)

type row = { label : string; count : int; total_s : float }

type t = {
  operators : row list;
      (** per operator-span name (the op name), most expensive first *)
  phases : row list;
      (** frontier/load, saturate, extract, and the certificate cache's
          cache-lookup and cache-store spans; {!pp} prints the
          saturation split beneath them *)
  rules : (string * int * int) list;
      (** rule name, unions applied, matches examined; most-applied
          first *)
  bans : (string * int) list;  (** backoff bans per rule *)
  iterations : int;
  matches : int;
  unions : int;
  nodes_peak : int;
  classes_peak : int;
  collect_s : float;
  apply_s : float;
  rebuild_s : float;
      (** saturation's split, summed over the iteration spans: seconds
          e-matching, applying matches, and restoring congruence *)
  minor_words : int;  (** words allocated during saturation *)
  cache_hits : int;  (** operators served from the certificate cache *)
  cache_misses : int;
  cache_replays_failed : int;
}

val of_events : Event.t list -> t
val pp : t Fmt.t
