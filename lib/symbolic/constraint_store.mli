(** A store of user-specified constraints over symbolic dimensions.

    Mirrors the paper's use of SMT-LIB: the user registers facts about
    symbolic scalars (for instance "the sequence length is positive and
    divisible by the parallelism degree") and lemma conditions are
    discharged against them by {!Decide}. *)

type t

type constr =
  | Ge of Symdim.t  (** expression [>= 0] *)
  | Eq of Symdim.t  (** expression [= 0] *)

val empty : t
val is_empty : t -> bool

val add_ge : t -> Symdim.t -> t
(** [add_ge s e] records [e >= 0]. *)

val add_gt : t -> Symdim.t -> t
(** [add_gt s e] records [e > 0], i.e. [e - 1 >= 0] over the integers. *)

val add_eq : t -> Symdim.t -> Symdim.t -> t
(** [add_eq s a b] records [a = b]. *)

val add_positive : t -> string -> t
(** [add_positive s name] records [name >= 1]; the common case for shape
    symbols. *)

val of_list : constr list -> t
val constraints : t -> constr list

val inequalities : t -> Symdim.t list
(** All constraints as a list of expressions [e] with meaning [e >= 0]
    (equalities are expanded into two inequalities). *)

val pp : t Fmt.t
