(** The e-graph: a congruence-closed set of equivalence classes of terms.

    A re-implementation of the core of egg (Willsey et al., POPL 2021),
    which the paper uses for expression rewriting: terms are added as
    hash-consed e-nodes; [union] asserts equality; [rebuild] restores
    congruence after a batch of unions. An e-class analysis tracks the
    symbolic shape of every class, which conditioned lemmas consult. *)

open Entangle_symbolic
open Entangle_ir

type t

val create : ?constraints:Constraint_store.t -> unit -> t

val constraints : t -> Constraint_store.t

(** {1 Adding terms} *)

val add : t -> Enode.t -> Id.t
val add_leaf : t -> Tensor.t -> Id.t
val add_op : t -> Op.t -> Id.t list -> Id.t
val add_expr : t -> Expr.t -> Id.t

val lookup : t -> Enode.t -> Id.t option
(** Like {!add} but never inserts; [None] when the (canonicalized) node
    is not present. Implements the "constrained lemmas" optimization
    (paper section 4.3.2): a conditioned rule may require its target to
    already exist. *)

val leaf_id : t -> Tensor.t -> Id.t option

(** {1 Equivalences} *)

val find : t -> Id.t -> Id.t
val equiv : t -> Id.t -> Id.t -> bool

val union : t -> Id.t -> Id.t -> bool
(** [true] when the two classes were distinct and have been merged.
    Requires a subsequent {!rebuild} before matching again. When both
    classes carry a shape and the shapes provably disagree, the
    winner's shape is kept and the conflict is recorded for the
    invariant checker ({!Debug.shape_conflicts}, EGRAPH007). *)

val rebuild : t -> unit
(** Restore the congruence invariant; processes all pending unions.
    Also propagates modification marks upward: every class transitively
    reachable from a merged class through parent edges is stamped with a
    fresh generation, so {!classes_modified_since} over-approximates the
    classes whose match sets may have changed. *)

(** {1 Modification generations}

    Every structural change (node addition, union, congruence repair)
    advances a monotonic counter and stamps the touched class with it.
    The saturation runner snapshots {!generation} when a rule is
    matched and later re-matches only {!classes_modified_since} that
    snapshot. Accurate only after {!rebuild} (upward propagation of
    union marks is deferred to it). *)

val generation : t -> int
(** Current value of the modification counter. *)

val modified_at : t -> Id.t -> int
(** Generation at which the (canonical) class of the id last changed. *)

val structural_at : t -> Id.t -> int
(** Generation at which the (canonical) class's own node set last
    changed: class creation or a union merging nodes in. Unlike
    {!modified_at} it is {e not} bumped by dirtiness propagated up from
    descendants, so [structural_at t id <= modified_at t id] always.
    Delta e-matching ({!Ematch.match_class_delta}) keys on this stamp. *)

val shape_at : t -> Id.t -> int
(** Generation at which the (canonical) class's shape analysis last
    changed. Shapes only change at class creation and at merges, so
    [shape_at t id <= structural_at t id] always. *)

val classes_modified_since : t -> int -> Id.t list
(** Canonical ids of every class stamped strictly after the given
    generation: the dirty set for incremental e-matching. *)

val classes_with_family : t -> string -> Id.t list
(** Canonical ids of every class containing at least one node whose
    operator family ({!Entangle_ir.Op.name}) is the given one. The
    index is maintained incrementally on add/union (classes only ever
    gain families); stale entries from absorbed classes are compacted
    lazily on query. *)

val has_arity : t -> string -> int -> bool
(** [has_arity g family n]: has a node of the operator family with [n]
    children ever been hash-consed? An O(1) bitmask test against the
    arity census {!add} keeps per family. Exact for
    [n < Sys.int_size - 1], whose bits the census holds, and [true]
    beyond that whenever the family has a node at all. A hash-consed
    node never loses its operator or arity ({!rebuild} re-keys it over
    canonical children and dedups it only against an equal node), so
    [false] implies that {!lookup} returns [None] for every node of
    that family and arity. Constrained lemmas ask it before they build
    a probe node. Audited by [Entangle_analysis.Egraph_check]
    (EGRAPH010). *)

(** {1 Inspection} *)

val nodes_of : t -> Id.t -> Enode.t list
(** Canonicalized nodes of the class of the given id. *)

val nodes_with_stamps : t -> Id.t -> (Enode.t * int) list
(** The class's nodes as stored, each paired with the generation at
    which it was first added: the same nodes in the same order as
    {!nodes_of}, but not copied, so children may be non-canonical
    between a union and the next {!rebuild}. Callers must {!find} every
    child they follow, as the e-matchers do. Stamps survive merges: a
    node absorbed from a losing class keeps its original stamp, because
    every substitution rooted through it was already collected at the
    losing class and its application outcome is unchanged by the merge.
    Delta e-matching skips root nodes whose stamp predates a rule's
    last search. *)

val shape_of : t -> Id.t -> Shape.t option
val class_ids : t -> Id.t list
val num_classes : t -> int
(** O(1): the class table's size. *)

val num_nodes : t -> int
(** O(1): a cached counter maintained on add/union/rebuild, mirroring
    the sum of per-class node-list lengths exactly (duplicates created
    by unions count until {!rebuild} deduplicates them). Audited
    against recomputation by [Entangle_analysis.Egraph_check]
    (EGRAPH008). *)

val reachable : t -> Id.t list -> Id.Set.t
(** Canonical ids of the classes reachable from the given roots through
    e-node children, roots included. {!Extract} solves its costs over
    this set. *)

val contains_leaf : t -> Id.t -> (Tensor.t -> bool) -> bool
(** Does the class of the id contain a leaf satisfying the predicate? *)

val iter_nodes : t -> (Id.t -> Enode.t -> unit) -> unit
(** Iterate over every canonicalized node of every class. Used by rules
    that need to scan for existing nodes (the constrained-lemma
    optimization of section 4.3.2). *)

val pp : t Fmt.t

(** {1 Introspection for invariant checking}

    Raw views of internal state consumed by the static-analysis pass
    ([Entangle_analysis.Egraph_check]); not meant for normal clients. *)
module Debug : sig
  val memo_entries : t -> (Enode.t * Id.t) list
  (** Every hashcons entry (node key, class id) as stored — keys and
      values are {e not} canonicalized, so staleness is observable. *)

  val pending_count : t -> int
  (** Unions recorded since the last {!rebuild}. *)

  val uf_size : t -> int
  val uf_check_acyclic : t -> (unit, Id.t) result

  val recompute_num_nodes : t -> int
  (** O(graph) recount of every class's node list; the ground truth the
      cached {!num_nodes} counter is audited against. *)

  val family_entries : t -> (string * Id.t list) list
  (** Raw operator-family index as stored — ids are {e not}
      canonicalized, so staleness is observable. *)

  val arity_census : t -> (string * int list) list
  (** Per family, the arities whose census bit is set, ascending. *)

  val shape_conflicts : t -> (Id.t * Shape.t * Shape.t) list
  (** Unions that merged two classes with provably disagreeing shapes:
      (surviving root, winner shape kept, loser shape dropped). *)
end
