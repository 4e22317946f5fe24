(** E-graph invariant checking (the debug pass egg ships, which the
    paper's checker relies on implicitly).

    Meant to run when the congruence invariant is supposed to hold, i.e.
    right after {!Entangle_egraph.Egraph.rebuild}:

    - [EGRAPH001] pending unions: [rebuild] has not been run;
    - [EGRAPH002] union-find parent chains are cyclic;
    - [EGRAPH003] the class table holds a non-canonical id;
    - [EGRAPH004] a hashcons entry is stale: its node key is
      non-canonical, or it points to a class that does not contain the
      node;
    - [EGRAPH005] congruence violation: two distinct classes contain the
      same canonical node;
    - [EGRAPH006] shape-analysis disagreement inside a class — an error
      when the shapes are concrete and provably different, a warning
      when equality is merely unprovable;
    - [EGRAPH007] a union merged two classes whose shapes provably
      disagreed ({!Egraph.Debug.shape_conflicts}); severity as for
      EGRAPH006;
    - [EGRAPH008] the cached O(1) {!Egraph.num_nodes} counter disagrees
      with an O(graph) recount;
    - [EGRAPH009] the incrementally maintained operator-family index is
      incomplete or, over canonical ids, unsound;
    - [EGRAPH010] the arity census ({!Egraph.has_arity}) disagrees with
      a recount of (family, arity) over every class's nodes, in either
      direction: it is exact, not only conservative. *)

open Entangle_egraph

val check : Egraph.t -> Diagnostic.t list

exception Violation of Diagnostic.t list

val runner_hook : Egraph.t -> unit
(** Raises {!Violation} when {!check} finds any error-severity
    diagnostic; pass as [Runner.run ~invariant_check] to audit the
    e-graph after every saturation iteration. *)
