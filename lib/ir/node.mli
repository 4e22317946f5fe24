(** A node (operator instance) of a computation graph. *)

type t = { id : int; op : Op.t; inputs : Tensor.t list; output : Tensor.t }

val id : t -> int
val op : t -> Op.t
val inputs : t -> Tensor.t list
val output : t -> Tensor.t

val distinct_inputs : t -> Tensor.t list
(** [inputs] without repeats, in order of first use; linear in the
    number of inputs. *)

val pp : t Fmt.t
