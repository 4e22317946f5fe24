(** Shared utilities for writing lemmas: pattern shorthands, operator
    attribute accessors, and shape queries against the e-graph. *)

open Entangle_symbolic
open Entangle_ir
open Entangle_egraph

(** {1 Pattern shorthands} *)

val v : string -> Pattern.t
val p : Op.t -> Pattern.t list -> Pattern.t
val fam : string -> bind:string -> Pattern.t list -> Pattern.t

val vars : int -> Pattern.t list
(** [vars n] is [[?x0; ...; ?x(n-1)]]. *)

val var_names : int -> string list
(** [var_names n] is [["x0"; ...; "x(n-1)"]], the names {!vars} binds. *)

val vars2 : int -> Pattern.t list * Pattern.t list
(** [[?x0..]], [[?y0..]] — two disjoint groups for binary rules. *)

val vars_y : int -> Pattern.t list
(** [vars_y n] is [[?y0; ...; ?y(n-1)]]. *)

(** {1 Operator attribute accessors} *)

val concat_dim : Op.t -> int option
(** Dim of [Concat] or [Hlo_concatenate]. *)

val slice_attrs : Op.t -> (int * Symdim.t * Symdim.t) option
(** (dim, start, stop) of [Slice] or [Hlo_slice]. *)

val scale_factor : Op.t -> Rat.t option
val transpose_dims : Op.t -> (int * int) option
val reduce_scatter_attrs : Op.t -> (int * int * int) option
val all_gather_dim : Op.t -> int option

(** {1 E-graph shape queries} *)

val shape_of_var : Egraph.t -> Subst.t -> string -> Shape.t option
val dim_of_var : Egraph.t -> Subst.t -> string -> int -> Symdim.t option
(** Size of a variable's class along an axis (axis may be negative). *)

val rank_of_var : Egraph.t -> Subst.t -> string -> int option

val equal_groups : groups:int -> 'a list -> 'a list list
(** [equal_groups ~groups l] cuts [l] into [groups] consecutive runs of
    equal length; [groups] divides the length of [l]. *)

val sub_term_exists : Egraph.t -> Subst.t -> Op.t -> string list -> bool
(** [sub_term_exists g subst op names]: does [op] over the classes
    bound to [names] already exist as an e-node? A single name is its
    own sub-term. The guard of the constrained regrouping lemmas (paper
    section 4.3.2): it asks {!Egraph.has_arity} before it builds and
    looks up a probe node, so a match costs a bitmask test while the
    e-graph holds no node of the family and arity. *)

val deq : Egraph.t -> Symdim.t -> Symdim.t -> bool
(** Provable equality under the e-graph's constraint store. *)

val dle : Egraph.t -> Symdim.t -> Symdim.t -> bool

val shapes_equal : Egraph.t -> Shape.t -> Shape.t -> bool

(** {1 Option helpers} *)

val ( let* ) : 'a option -> ('a -> 'b option) -> 'b option
val guard : bool -> unit option
val all_some : 'a option list -> 'a list option

(** {1 Rule generation} *)

val for_arities : int -> int -> (int -> Rule.t) -> Rule.t list
(** [for_arities lo hi gen] instantiates a variadic rule template for
    every arity in [lo..hi]. *)

val collective_arities : int * int
(** Range of parallelism degrees supported by generated variadic rules;
    currently [2, 8] matching the paper's evaluated range. *)
