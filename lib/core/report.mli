(** Human-readable reports for refinement results.

    Failure reports carry what the paper's case studies show users act
    on: the operator where the search terminated, its input relations,
    and the operators immediately upstream. *)

open Entangle_ir

val pp_success : Graph.t -> Refine.success Fmt.t

val pp_failure : Graph.t -> Refine.failure Fmt.t
(** [pp_failure gs] formats a failure against the sequential graph,
    including upstream producer context for localization. The rendered
    verdict distinguishes provably-unmapped from budget-exhausted from
    internal checker errors; under [keep_going] every additional
    localized fault and the skipped dependents are listed too. *)

val success_to_string : Graph.t -> Refine.success -> string
val failure_to_string : Graph.t -> Refine.failure -> string
