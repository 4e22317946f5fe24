(** Term extraction from e-classes.

    [best] extracts the smallest term of a class ("the expression with
    the smallest number of nested expressions", paper section 4.3.2).
    [best_clean] restricts both the operators (to clean ones) and the
    admissible leaves; it is how the checker turns a saturated e-graph
    into a clean relation entry.

    Costs are solved by a bottom-up fixpoint over the classes the root
    reaches through children ({!Egraph.reachable}), not over the whole
    e-graph: no other class can change the root's cost, so every
    extraction equals the whole-graph one, tie-break included, and the
    filters are never asked about anything the root cannot reach. *)

open Entangle_ir

val best : Egraph.t -> Id.t -> Expr.t option
(** Smallest term of the class, over any leaves. [None] only when the
    class contains no term grounded in leaves. *)

val best_clean :
  Egraph.t -> leaf_ok:(Tensor.t -> bool) -> Id.t -> Expr.t option
(** Smallest term of the class whose operators all satisfy
    {!Op.is_clean} and whose leaves all satisfy [leaf_ok]. *)

val best_filtered :
  Egraph.t ->
  node_ok:(Op.t -> bool) ->
  leaf_ok:(Tensor.t -> bool) ->
  Id.t ->
  Expr.t option
(** Like {!best_clean} with a caller-supplied operator filter; used to
    extract alternative canonical forms (for instance rearrangement-only
    expressions alongside reduction expressions). *)
