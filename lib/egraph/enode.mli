(** E-nodes: an operator or tensor leaf applied to e-class children. *)

open Entangle_ir

type sym = Op of Op.t | Leaf of Tensor.t

type t = { sym : sym; children : Id.t list }

val op : Op.t -> Id.t list -> t
val leaf : Tensor.t -> t

val sym : t -> sym
val children : t -> Id.t list

val map_children : (Id.t -> Id.t) -> t -> t
(** Canonicalization under a union-find [find]. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val pp : t Fmt.t

module Tbl : Hashtbl.S with type key = t
module Map : Map.S with type key = t
