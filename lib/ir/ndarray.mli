(** Dense n-dimensional float arrays: the kernels of the certificate
    replay engine.

    The checker itself is static; {!Interp} runs graphs and relation
    expressions on these arrays, and every certificate is trusted only
    once [Verify.replay] has reconstructed the sequential outputs from
    the distributed ones on concrete data: in [verify], in the client's
    re-verification of a fetched bundle and in the daemon's of a pushed
    one. The test suite runs lemmas on them too.

    Replay compares against a tolerance, but its verdicts and CERT010
    details are pinned bit for bit, so each kernel computes every
    output element with the IEEE operations, in the order, of the
    per-element composition it replaced ([test/test_ndarray.ml] keeps
    that reference and holds the kernels to it). Rearrangements copy
    contiguous blocks, broadcasting arithmetic walks rows with
    incremental offsets, and [softmax], [layernorm], [rmsnorm] and
    [rope] are fused per lane or row; none calls a closure or allocates
    per element, apart from [init], [map] and [map2], whose callers
    supply one. *)

type t

val create : int list -> float -> t
val init : int list -> (int list -> float) -> t
val scalar : float -> t
val of_list : int list -> float list -> t

val dims : t -> int list
val rank : t -> int
val numel : t -> int
val get : t -> int list -> float
val set : t -> int list -> float -> unit
val to_flat_list : t -> float list

val random : Random.State.t -> int list -> t
(** Uniform in [-1, 1). *)

val random_ints : Random.State.t -> hi:int -> int list -> t
(** Integer-valued entries drawn from [0, hi). *)

(** {1 Elementwise} *)

val map : (float -> float) -> t -> t

val map2 : (float -> float -> float) -> t -> t -> t
(** NumPy broadcasting: [f] sees the operand pairs in the result's
    row-major order. Raises [Invalid_argument] on incompatible dims. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val scale : float -> t -> t
val sum_list : t list -> t

(** {1 Contraction and rearrangement} *)

val matmul : t -> t -> t
(** 2-D x 2-D, batched x batched (equal batch dims), or batched x 2-D. *)

val concat : dim:int -> t list -> t
(** Raises [Invalid_argument] unless every operand has the first one's
    rank and dims off the axis. *)

val slice : dim:int -> start:int -> stop:int -> t -> t
val transpose : dim0:int -> dim1:int -> t -> t
val reshape : int list -> t -> t
val pad : dim:int -> before:int -> after:int -> t -> t
(** Zero padding along one dimension. *)

(** {1 Reductions} *)

val reduce_sum : dim:int -> keepdim:bool -> t -> t
val reduce_mean : dim:int -> keepdim:bool -> t -> t
val reduce_max : dim:int -> keepdim:bool -> t -> t

(** {1 Neural-network kernels} *)

val softmax : dim:int -> t -> t
val layernorm : eps:float -> t -> t -> t -> t
(** Over the last dimension, fused per row. The weight and bias must be
    vectors as long as it, as shape inference requires; raises
    [Invalid_argument] otherwise. *)

val rmsnorm : eps:float -> t -> t -> t
(** As {!layernorm}, with a weight and no bias. *)

val embedding : t -> t -> t
val rope : t -> t -> t -> t
(** [rope x cos sin]: rotate-half rotary embedding on the last
    dimension, fused per row when [cos] and [sin] have [x]'s shape. *)

val mse_loss : t -> t -> t
val cross_entropy : t -> t -> t
val silu : t -> t
val gelu : t -> t

(** {1 Comparison} *)

val approx_equal : ?tol:float -> t -> t -> bool
val max_abs_diff : t -> t -> float
val pp : t Fmt.t
