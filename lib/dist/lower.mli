(** Combinators for constructing distributed implementations.

    A lowering context wraps a {!Graph.Builder} for the distributed
    graph together with the parallelism degree and the clean input
    relation being accumulated. Model-zoo modules compose these
    combinators per distribution strategy exactly the way training
    frameworks compose sharded weights with collectives.

    Per-rank values are [Tensor.t list]s of length [degree], rank-major. *)

open Entangle_symbolic
open Entangle_ir

type t

val create : ?constraints:Constraint_store.t -> name:string -> degree:int -> unit -> t

val degree : t -> int
val builder : t -> Graph.Builder.t

(** {1 Inputs and the input relation} *)

val shard_input : t -> Tensor.t -> dim:int -> Tensor.t list
(** Declare per-rank input shards of a sequential input along [dim];
    records the relation entry [t -> concat(shards, dim)]. Raises
    [Invalid_argument] when the dimension is not evenly divisible. *)

val replicate_input : t -> Tensor.t -> Tensor.t list
(** Declare one replica input per rank; records one relation entry per
    replica (a relation may map the same tensor several times,
    section 3.2). *)

val whole_input : t -> Tensor.t -> Tensor.t
(** Declare a single non-partitioned copy with an identity relation
    entry. *)

(** {1 Collectives} *)

val all_reduce : t -> Tensor.t list -> Tensor.t list
val reduce_scatter : t -> dim:int -> Tensor.t list -> Tensor.t list
val all_gather : t -> dim:int -> Tensor.t list -> Tensor.t list

(** {1 Computation} *)

val add : t -> ?name:string -> Op.t -> Tensor.t list -> Tensor.t
val map_ranks : t -> (int -> 'a) -> 'a list

(** {1 Finishing} *)

val output : t -> Tensor.t -> unit
val outputs : t -> Tensor.t list -> unit
val finish : t -> Graph.t * Entangle.Relation.t
