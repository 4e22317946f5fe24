(** Computation graphs.

    A directed acyclic graph whose vertices are operators and whose edges
    are tensors (paper section 3.2). Graphs are immutable once built; use
    {!Builder} to construct them. Nodes are stored in the order they were
    added, which is a valid topological order by construction and is also
    the order [compute_out_rel] processes operators in. *)

open Entangle_symbolic

type t

val name : t -> string
val inputs : t -> Tensor.t list
val outputs : t -> Tensor.t list
val nodes : t -> Node.t list
val constraints : t -> Constraint_store.t

val num_nodes : t -> int
val tensors : t -> Tensor.t list
(** Every tensor appearing in the graph: inputs, intermediates, outputs. *)

val producer : t -> Tensor.t -> Node.t option
(** The node producing a tensor; [None] for graph inputs. *)

val consumers : t -> Tensor.t -> Node.t list
(** Nodes using a tensor as an input, in graph order, each once. Backed
    by an index precomputed at construction time — O(log n) plus the
    answer's length per query, not a scan of the node list. *)

val is_input : t -> Tensor.t -> bool
val is_output : t -> Tensor.t -> bool

val mem_tensor : t -> Tensor.t -> bool
(** Whether the tensor is an input or a node output of the graph. These
    three answer from sets built with the graph, in O(log n). *)

val anchors : t -> Expr.t list list -> Tensor.Set.t
(** The graph's tensors among the leaves of the given mapping lists.
    Given the mappings of a sequential operator's inputs, these are
    where its {!cone} starts. *)

val cone : t -> anchors:Tensor.Set.t -> Node.t list list
(** The nodes the frontier search (paper Listing 3) loads from
    [anchors], wave by wave. Wave 1 holds every node whose inputs are
    all anchors (so every node without inputs); wave k+1 every node not
    yet loaded whose inputs are all anchors or outputs of waves 1..k.
    Within a wave, nodes are in graph order. The order is part of the
    contract: the search loads the nodes in it, and e-class ids, and
    with them the relations it extracts, follow load order. Time is
    proportional to the cone and the consumers it reaches, not to the
    graph. *)

val append_expr : t -> ?name:string -> Expr.t -> (t * Tensor.t, string) result
(** Append operator nodes computing the expression (whose leaves must
    already be tensors of the graph) and add its result to the outputs.
    Used by user-expectation checking (paper section 4.4) to graft
    [f_s(O(G_s))] / [f_d(O(G_d))] onto the graphs. *)

val with_outputs : t -> Tensor.t list -> (t, string) result
(** Replace the output list; each tensor must belong to the graph. *)

val unsafe_make :
  ?constraints:Constraint_store.t ->
  name:string ->
  inputs:Tensor.t list ->
  outputs:Tensor.t list ->
  Node.t list ->
  t
(** Assemble a graph from raw parts {e without} any well-formedness
    checking: the node list is taken as given (even if out of order,
    cyclic through producer references, or carrying stale tensor
    metadata). Exists so the static-analysis test fixtures can build
    deliberately malformed graphs; everything else should go through
    {!Builder}. *)

val pp : t Fmt.t

(** Imperative construction of a graph in topological order. *)
module Builder : sig
  type graph := t
  type t

  val create : ?constraints:Constraint_store.t -> string -> t

  val input : t -> ?dtype:Dtype.t -> string -> Shape.t -> Tensor.t
  (** Declare a graph input. *)

  val add : t -> ?name:string -> Op.t -> Tensor.t list -> Tensor.t
  (** [add b op inputs] appends a node applying [op]; the output tensor's
      shape and dtype are inferred. Raises [Invalid_argument] on shape or
      arity errors and when an input tensor is not yet part of the
      graph. *)

  val output : t -> Tensor.t -> unit
  (** Mark a tensor as a graph output. *)

  val finish : t -> graph
end
