(** The allocation counts `bench/main.exe ablation` writes to
    BENCH_egraph.json and the perf gate (test/test_perf_gate.ml)
    re-derives, counted one way for both. *)

open Entangle_models

val words : (unit -> 'a) -> int * 'a
(** The words [f ()] allocates, counted between two minor collections.
    The collections make the count exact; without them a native
    program's count drifts by up to ~10^5 words from one run to the
    next. *)

val check :
  Instance.t ->
  int * (Entangle.Refine.success, Entangle.Refine.failure) result
(** A default-configuration [Refine.check] and the words it allocates;
    the rule list is built before the count starts. *)

val replay_words : unit -> (int, string) result
(** The words [Certify.replay] allocates on gpt-d8l4's certificate
    (8 heads, degree 8, 4 layers). [Error] if it does not refine or
    does not replay. *)
