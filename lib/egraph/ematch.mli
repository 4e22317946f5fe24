(** E-matching: finding all substitutions under which a pattern matches
    an e-class, and instantiating right-hand sides. *)

type mode = Insert | Check_only
(** [Check_only] implements the constrained-lemma optimization (paper
    section 4.3.2): instantiation succeeds only when every operator node
    of the right-hand side already exists in the e-graph. *)

val per_class_budget : int
(** Hard bound on the substitutions produced while matching one pattern
    against one class; see {!truncate}. *)

val truncate : 'a list -> 'a list
(** First {!per_class_budget} elements of the list, in order; the list
    itself (no copy) when it already fits. Exposed for testing. *)

val match_class : Egraph.t -> Pattern.t -> Id.t -> Subst.t list
(** All substitutions matching the pattern at the given class. *)

val match_class_delta :
  Egraph.t -> since:int -> conditional:bool -> Pattern.t -> Id.t -> Subst.t list
(** Like {!match_class}, but keep only substitutions that could not
    have been collected (with the same application outcome) at a search
    taken at generation [since] — the semi-naive delta: the root node
    was added after [since], or a class entered through an operator
    sub-pattern changed structurally ({!Egraph.structural_at}) since,
    or — for a bare-variable pattern — the root class itself did.
    With [conditional:true] — for rules whose applier may inspect
    match-reachable classes and whose old substitutions are not
    re-applied from a cache — a structural change to {e any} visited
    class (variable bindings and the root included) also re-admits the
    substitution, since it can flip the applier's outcome.
    [match_class_delta ~since:(-1)] equals {!match_class}. *)

val match_all : Egraph.t -> Pattern.t -> (Id.t * Subst.t) list
(** Matches across every class of the e-graph. *)

val instantiate :
  mode:mode -> Egraph.t -> Subst.t -> Pattern.t -> Id.t option
(** Build the pattern under the substitution. [None] if the pattern
    references an unbound variable/operator or, in [Check_only] mode,
    when a node does not already exist. *)
