(** Symbolic scalar terms: the value language of the lemma verifier.

    A tensor-level rewrite is value-correct when, for every output index,
    the scalar computed by the left-hand side equals the scalar computed
    by the right-hand side. The verifier expresses each side as a term of
    this language — an index function in summation normal form, in the
    TensorRight style — and discharges the equality through {!Decide}
    under the lemma's side-condition {!Constraint_store}.

    The fragment is deliberately small: accesses into named tensors at
    affine (or data-dependent) indices, exact rational arithmetic,
    uninterpreted function symbols for the nonlinear elementwise
    operators, bounded sum/max reductions, and a selection operator on
    affine conditions that models concatenation and padding. Everything a
    rewrite can do to such a term — splitting a sum at a concatenation
    boundary, cancelling a mean's divisor, commuting a selection with an
    uninterpreted function — is handled by the store-aware normalizer
    {!norm} plus the case-splitting prover {!prove_equal}. *)

type reduction = Rsum | Rmax

type index =
  | I of Symdim.t  (** affine position *)
  | S of t  (** data-dependent position (gather via an integer tensor) *)

and t =
  | Access of string * index list
      (** a cell of a named input tensor *)
  | Cst of Rat.t
  | CstF of float  (** opaque float constant, e.g. a norm epsilon *)
  | DimV of Symdim.t  (** a dimension's value used as a scalar *)
  | Lin of (Rat.t * t) list * Rat.t
      (** [sum ci * ti + c0]; atoms are not themselves [Lin] or [Cst] *)
  | Mul of t list  (** product of two or more atoms *)
  | App of string * t list  (** uninterpreted function symbol *)
  | Max of t list  (** n-ary maximum *)
  | Red of reduction * string * Symdim.t * t
      (** [Red (k, v, n, body)]: reduce [body] over [v] in [0, n) *)
  | Sel of Symdim.t * t * t
      (** [Sel (c, a, b)] is [a] when [c >= 0], else [b] *)
  | DivD of t * Symdim.t list
      (** division by a product of (positive) dimensions *)

val binder_prefix : string
(** Reserved symbol prefix for reduction binders; scenario dimension
    symbols must not use it. *)

(** {1 Smart constructors} (raw; normalization happens in {!norm}) *)

val access : string -> index list -> t
val cst_int : int -> t
val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val scale : Rat.t -> t -> t
val mul : t -> t -> t
val app : string -> t list -> t
val max2 : t -> t -> t
val sel : cond:Symdim.t -> t -> t -> t
val div_dims : t -> Symdim.t list -> t
val sum_over : string -> Symdim.t -> t -> t
val max_over : string -> Symdim.t -> t -> t

val norm : Constraint_store.t -> t -> t
(** Store-aware normal form: constant folding, flattening of sums and
    products, resolution of decidable selections, distribution of sums
    over linear bodies, hoisting of binder-independent bodies, and
    splitting of reductions at selection boundaries whose threshold is
    provably inside the range. Binders are renamed canonically by
    depth. Idempotent up to {!Decide} verdicts. *)

val prove_equal : Constraint_store.t -> t -> t -> bool
(** Sound equality check: normalizes both sides and compares them
    structurally modulo commutativity (greedy multiset matching),
    provable index/dimension equality, divisor cross-multiplication and
    binder renaming; on failure, case-splits on undecided binder-free
    selection conditions (both branches must agree). [false] means "not
    proved", never "provably different". *)

val compare : t -> t -> int
val equal_syntactic : t -> t -> bool
val pp : t Fmt.t
val to_string : t -> string
