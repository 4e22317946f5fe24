(** Symbolic tensor expressions.

    An expression is "a symbolic description of a computation" (paper
    section 3.2): leaves are tensors, internal nodes are operators.
    Relations pair a sequential-graph tensor with an expression over
    distributed-graph tensors. *)

open Entangle_symbolic

type t = Leaf of Tensor.t | App of Op.t * t list

val leaf : Tensor.t -> t
val app : Op.t -> t list -> t

val fold_leaves : ('a -> Tensor.t -> 'a) -> 'a -> t -> 'a
(** Fold over the leaf occurrences, left to right, repeats included. *)

val leaves : t -> Tensor.t list
(** Distinct leaf tensors, in first-occurrence order, in time linear in
    the term. *)

val size : t -> int
(** Number of operator applications ("nested expressions"); leaves count
    zero. The pruning optimization (paper section 4.3.2) keeps the
    expression with the smallest size per equivalence class. *)

val depth : t -> int

val is_clean : t -> bool
(** True when every operator in the expression satisfies {!Op.is_clean}. *)

val mem_leaf : Tensor.t -> t -> bool

val subst : (Tensor.t -> t option) -> t -> t
(** Replace leaves for which the function is defined. *)

val infer_shape : Constraint_store.t -> t -> (Shape.t, string) result

val equal : t -> t -> bool
val compare : t -> t -> int

val pp : t Fmt.t
(** S-expression style: [(matmul (concat A0 A1 {dim=1}) B)]. *)

val to_string : t -> string
