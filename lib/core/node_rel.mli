(** Per-operator relation inference: [compute_node_out_rel] of the
    paper's Listing 2, with the frontier optimization of Listing 3.

    Given one sequential operator [v], the distributed graph and the
    relation accumulated so far, builds an e-graph seeded with [v]'s
    base expression and the relation's mappings, iteratively loads the
    related subgraph of the distributed graph, saturates with the lemma
    rules, and extracts clean expressions for [v]'s output. *)

open Entangle_ir
open Entangle_egraph

type outcome = {
  mappings : Expr.t list;
      (** clean expressions over any distributed tensors, simplest
          first; empty means [v]'s output could not be mapped *)
  output_mappings : Expr.t list;
      (** clean expressions over distributed {e graph outputs} only *)
  exhausted : Runner.budget option;
      (** [Some b] when budget [b] (rounds, e-graph growth, wall clock)
          stopped the saturation loop, whether or not a mapping had
          been found: the mappings are then what the budget left, and
          are not definitive. [None] when the loop saturated, settled
          on a mapping, or confirmed that none is derivable. Empty
          [mappings] with [exhausted = None] means the search
          saturated: a clean relation is provably absent under the
          given rules. Empty [mappings] with [Some b] is merely
          inconclusive — the caller may escalate. *)
}

val compute :
  config:Config.t ->
  ?deadline:float ->
  sink:Entangle_trace.Sink.t ->
  rules:Runner.index ->
  gd:Graph.t ->
  relation:Relation.t ->
  seeds:(Tensor.t * Expr.t list) list ->
  Node.t ->
  (outcome, string) result
(** [Error] signals a malformed query (an input of [v] has no mapping in
    the relation), not a refinement failure — the latter is an [Ok] with
    empty [mappings].

    [rules] is the lemma rule list's scheduling index, built once per
    check. [seeds] are the candidate relation entries, in order: the
    mappings of [v]'s inputs and of every sequential graph input, as
    {!Refine.check} selects them for both this search and its cache
    key. With the frontier optimization on, the distributed nodes
    loaded are {!Graph.cone} from {!Graph.anchors} of [v]'s input
    mappings, in its wave order; the cache key hashes the same node set
    through the same two calls. The entries seeded into the e-graph,
    before those nodes, are {!related_seeds} of [seeds] for [v]'s
    inputs and the tensors the anchors and loaded nodes hold: a function
    of what the key hashes, so equal keys still load equal content.

    [deadline] is an absolute wall-clock bound ([Unix.gettimeofday]
    scale) passed to every {!Runner.step}; tripping it reports
    [exhausted = Some Deadline].

    [sink] receives the per-operator phase spans ([frontier]/[load],
    [saturate], [extract]), per-wave frontier-growth instants and a
    final e-graph growth sample, on top of whatever the saturation
    runner emits; pass {!Entangle_trace.Sink.null} to disable. Note
    [sink] is taken explicitly rather than read from
    [config.Config.trace]: {!Refine.check} tees its own statistics
    aggregator into the configured sink and hands the combined sink
    down. *)

val related_seeds :
  inputs:Tensor.t list ->
  held:Tensor.Set.t ->
  (Tensor.t * Expr.t list) list ->
  (Tensor.t * Expr.t list) list
(** The entries of [seeds] that can share an e-class with what the
    search loads, in their order. An entry's leaves are its sequential
    tensor and the leaves of its mappings. An entry is kept when a leaf
    is one of [inputs] (the leaves of [v]'s base expression) or is in
    [held] (the distributed tensors the anchors and loaded nodes hold),
    or when a leaf is a leaf of another kept entry: the closure runs to
    a fixpoint, in time linear in the entries' leaves.

    A dropped entry shares no leaf with anything loaded, and so no
    e-class: e-nodes are hash-consed over their children, no operator
    is nullary, and every rewrite builds only over the classes of its
    match. It cannot take part in a mapping of [v]; seeding it costs
    seeding, e-matching and nodes. Dropping it is not proven to leave
    [v]'s mappings unchanged, because two couplings span every class:
    scheduling (backoff bans, the match cap and the node budget count
    every class) and the order in which rules meet candidate classes,
    the iteration order of tables that hash absolute class ids and are
    sized by every class. On the corpus no mapping moved; the relation
    and bundle pins in [test/test_certexport.ml] hold that. *)
