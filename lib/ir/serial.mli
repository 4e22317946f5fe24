(** On-disk text format for computation graphs.

    The format plays the role of the artifact's shipped torch.fx graph
    files: users can hand the checker a sequential graph and a
    distributed graph captured elsewhere. Example:

    {v
    (graph my-model
      (symbols (s (ge 1)))
      (inputs
        (x (shape s 8) f32)
        (w (shape 8 4) f32))
      (nodes
        (y (matmul) (x w)))
      (outputs y))
    v}

    Operator attributes are rendered structurally, e.g.
    [(concat 1)], [(slice 0 0 (mul 2 s))], [(reduce_sum 0 false)],
    [(scale 1/2)]. Dimensions are integers, symbols, or affine
    expressions: [(+ t1 t2 ...)] for sums and [(mul k x)]-style
    products, written with the star operator in the concrete syntax. *)

open Entangle_symbolic

val symdim_to_sexp : Symdim.t -> Sexp.t
val symdim_of_sexp : Sexp.t -> (Symdim.t, string) result
val op_to_sexp : Op.t -> Sexp.t
val op_of_sexp : Sexp.t -> (Op.t, string) result

val graph_to_sexp : Graph.t -> Sexp.t
val graph_to_string : Graph.t -> string

val graph_of_sexp : Sexp.t -> (Graph.t, string) result
val graph_of_string : string -> (Graph.t, string) result

val tensor_by_name : Graph.t -> string -> Tensor.t option
(** Lookup used when resolving relation files against parsed graphs.
    [tensor_by_name g] builds a name index over {!Graph.tensors} once:
    apply it to [g] alone and resolve every name through the result.
    On a duplicate name the first tensor in {!Graph.tensors} order wins;
    graph serialization fails on duplicate tensor names, so the lookup
    is unambiguous for graphs that round-tripped. *)

val expr_to_sexp : Expr.t -> Sexp.t
(** Leaves render as [(tensor name)], applications as
    [(opname attrs... (args...))] reusing {!op_to_sexp}. Shared by the
    relation file format and the certificate cache. *)

val expr_of_sexp :
  resolve:(string -> Tensor.t option) -> Sexp.t -> (Expr.t, string) result
(** Inverse of {!expr_to_sexp}; leaves are resolved by name (a bare
    atom is accepted as a leaf too). *)

val map_result : ('a -> ('b, string) result) -> 'a list -> ('b list, string) result
(** [f] over a list in order, stopping at the first error; linear in
    the list's length. The parsers here decode every untrusted list
    with it. *)
