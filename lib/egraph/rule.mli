(** Rewrite rules.

    A rule is the executable form of a lemma (paper section 4.2.1):
    a left-hand pattern plus either a syntactic right-hand pattern
    (universal lemma) or a function computing right-hand patterns from
    the match (conditioned lemma, mirroring egg's closure appliers in
    Listing 4 of the paper). *)

type applier =
  | Syntactic of Pattern.t
  | Conditional of
      (Egraph.t -> Id.t -> Subst.t -> (Pattern.t * Pattern.t) list)
      (** Given the e-graph, the matched root class and the substitution,
          return equations to assert: each pair of patterns is
          instantiated and the two sides unioned. Return [[]] when the
          condition fails. Use [Pattern.c root] to refer to the matched
          class itself.

          {b Contract}: appliers must be {e match-local} — they may
          inspect only the substitution, structure and shapes of
          classes reachable from the match, and the e-graph's
          (immutable) constraint store. The incremental runner relies
          on this: a match-local condition can only change outcome when
          some reachable class changes, which dirties the matched class
          via parent-edge propagation, so unconstrained rules are never
          re-searched at clean classes. An applier that reads global
          e-graph state ({!Egraph.lookup}, {!Egraph.has_arity},
          {!Egraph.iter_nodes}) must declare it by setting [nonlocal];
          the runner then re-applies every substitution collected so
          far whenever it claims completeness, so the condition is
          re-evaluated even on matches whose reachable classes never
          changed. *)

type t = {
  name : string;
  lhs : Pattern.t;
  applier : applier;
  constrained : bool;
      (** When true, right-hand sides are instantiated in
          {!Ematch.Check_only} mode: the rewrite fires only if the target
          already exists (paper section 4.3.2, "Constrained Lemmas"). *)
  nonlocal : bool;
      (** When true, the applier reads e-graph state beyond the classes
          reachable from the match (see the {!applier} contract) and the
          incremental runner must not assume its outcome is stable on
          unchanged matches. *)
}

val make :
  ?constrained:bool -> ?nonlocal:bool -> string -> Pattern.t -> Pattern.t -> t
(** Universal lemma [make name lhs rhs]. *)

val make_dyn :
  ?constrained:bool ->
  ?nonlocal:bool ->
  string ->
  Pattern.t ->
  (Egraph.t -> Id.t -> Subst.t -> (Pattern.t * Pattern.t) list) ->
  t
(** Conditioned lemma. *)

val rewrite_to :
  ?constrained:bool ->
  ?nonlocal:bool ->
  string ->
  Pattern.t ->
  (Egraph.t -> Id.t -> Subst.t -> Pattern.t option) ->
  t
(** Conditioned lemma whose right-hand side replaces the matched class:
    convenience wrapper around {!make_dyn}. *)
