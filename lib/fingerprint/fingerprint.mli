(** Canonical content fingerprints over IR graphs.

    A fingerprint is a Merkle-style hash: a tensor produced by a node
    hashes the operator (with its attributes, via {!Op.key}), the
    fingerprints of the node's input tensors, and the output's name,
    symbolic shape and dtype. Graph-input tensors hash their name,
    shape and dtype. Node and tensor {e identifiers} never enter a
    fingerprint — ids are process-global counters, so fingerprints are
    stable across builds and invariant under node-id renaming, which is
    what makes them usable as persistent cache keys and as the
    content-addressing scheme of exported certificate bundles.

    Two tensors with equal fingerprints compute equal values from
    equally-named graph inputs; renaming an intermediate changes its
    fingerprint (conservative: a rename invalidates rather than
    aliases, since cached certificates resolve leaves by name).

    This library deliberately has no dependency on [entangle_egraph]:
    it hashes only IR-level statements, so the independent minimal
    verifier ({!module:Entangle_certexport}) can bind bundles to
    statements without linking the saturation engine. The rule-corpus
    fingerprint, which must inspect patterns, lives in
    {!Entangle_cache.Cache}. *)

open Entangle_symbolic
open Entangle_ir

type t
(** A fingerprint: a fixed-width hex digest (SHA-256, via {!Sha256},
    so equal fingerprints cannot be forged by hash collision). *)

val equal : t -> t -> bool
val compare : t -> t -> int
val to_hex : t -> string

val pp : t Fmt.t

val strings : string list -> t
(** Hash an ordered list of strings (with unambiguous framing). *)

type env
(** One graph and a memo mapping each of its tensors to its Merkle
    fingerprint. *)

val graph_env : Graph.t -> env
(** Fingerprint every tensor of the graph: inputs as leaves, node
    outputs from their defining node. Nodes are visited in list order,
    which {!Graph.Builder} guarantees is topological. The env keeps
    the graph, for {!graph}. *)

val tensor : env -> Tensor.t -> t
(** The memoized fingerprint; a tensor outside the environment's graph
    (e.g. an opaque placeholder) gets a leaf-style fingerprint from its
    name, shape and dtype. *)

val node : env -> Node.t -> t
(** [H(Op.key, input fingerprints, output name/shape/dtype)] — equals
    [tensor env (Node.output n)] when [n] belongs to the environment's
    graph. *)

val expr : env -> Expr.t -> t
(** Structural hash of an expression; leaves via {!tensor}. *)

val exprs : env -> Expr.t list -> t
(** Order-independent (sorted) hash of a mapping set. *)

val graph : env -> t
(** [graph (graph_env g)] is the whole-graph fingerprint of [g]:
    constraints plus the sorted input, output and node fingerprints,
    invariant under node-id renaming and under any topological node
    order. It takes no graph of its own, so it cannot be handed
    another graph's env. Every fingerprint is read from the env, none
    is hashed again: a node's is its output's entry, which equals
    {!node} over the finished env when [g] passes GRAPH001 (each node
    input is a graph input, or the output of an earlier node) and
    GRAPH002 (no tensor is produced twice, and no node produces a
    graph input). Every graph that {!Graph.Builder} builds passes
    both, so every graph {!Serial.graph_of_sexp} returns does; a graph
    that fails them gets a fingerprint all the same, but not the one
    hashing each node anew would give. *)

val constraints : Constraint_store.t -> t
(** Order-independent hash of the symbolic constraint store. *)
