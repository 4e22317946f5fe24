(** Aggregate-counters sink: the fold that derives checker statistics
    from the event stream.

    [Refine.check] installs one of these (teed with the user's sink)
    and builds its [stats] record from it, so the statistics and any
    collected trace are projections of the {e same} events and can
    never disagree. The aggregator stores a handful of mutable
    counters, not the events themselves, so it stays cheap even on
    long runs. *)

type t

val create : unit -> t

val sink : t -> Sink.t
(** Folds the {!Event} vocabulary: ["operator"] span ends with
    [processed=true] bump {!operators}; ["iteration"] span ends bump
    {!iterations} and accumulate their [matches]/[unions] args and
    their time split;
    ["egraph"] counter samples update the peaks; ["rule-hit"] instants
    accumulate per-rule hit counts; ["retry"] span ends bump
    {!retries}; ["budget-trip"] instants bump {!budget_trips}. *)

val operators : t -> int
val iterations : t -> int
val matches : t -> int
val unions : t -> int
val nodes_peak : t -> int
val classes_peak : t -> int

val retries : t -> int
(** escalation retry spans completed *)

val budget_trips : t -> int
(** per-operator saturation loops stopped by an exhausted budget *)

val cache_hits : t -> int
(** ["cache-hit"] instants: operators served from the certificate
    cache instead of searched *)

val cache_misses : t -> int
(** ["cache-miss"] instants: operators searched because no cache entry
    existed *)

val cache_replays_failed : t -> int
(** ["cache-replay-failed"] instants: entries found but rejected by
    certificate replay validation (then searched afresh) *)

val collect_s : t -> float
(** Sum of the iteration spans' [collect_s]: e-matching seconds. *)

val apply_s : t -> float
(** Sum of [apply_s]: seconds in appliers, instantiation and unions. *)

val rebuild_s : t -> float
(** Sum of [rebuild_s]: seconds restoring congruence. *)

val minor_words : t -> int
(** Sum of [minor_words]: words allocated during saturation. *)

val rule_hits : t -> (string * int) list
(** Sorted by rule name. *)
