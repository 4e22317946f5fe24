(** On-disk text format for relations, resolved against a pair of
    parsed graphs. Example:

    {v
    (relation
      (A (concat 1 (A1 A2)))
      (B (concat 0 (B1 B2)))
      (w (tensor w_0))
      (w (tensor w_1)))   ; several mappings model replication
    v}

    Each entry maps a tensor of the sequential graph (by name) to an
    expression over tensors of the distributed graph; leaves are written
    [(tensor name)] or bare names inside argument lists. *)

open Entangle_ir

val to_sexp : Relation.t -> Sexp.t
val to_string : Relation.t -> string

val of_sexp : gs:Graph.t -> gd:Graph.t -> Sexp.t -> (Relation.t, string) result
val of_string : gs:Graph.t -> gd:Graph.t -> string -> (Relation.t, string) result
