(** The independent minimal verifier.

    Checks a certificate bundle using only {e replay, cleanliness and
    shape inference} — no e-graph, no saturation, no rewrite corpus.
    Its trust boundary is deliberately small: accepting a bundle means
    "under the carried concrete shape assignment, the distributed
    graph's outputs reconstruct the sequential graph's outputs via the
    carried clean expressions, whose symbolic shapes also agree" — it
    does not re-establish the producer's saturation proof, and it
    trusts its own interpreter and the statement fingerprints the
    caller compares against an expected statement.

    Check order (first failure wins, one structured code each):
    [CERT006] completeness (env symbols, inputs, outputs, operators),
    [CERT007] cleanliness, [CERT008] leaf scope, [CERT009] symbolic
    shape agreement, [CERT010] concrete replay. Framing and integrity
    ([CERT001]–[CERT005]) are {!Bundle.of_string}'s job. *)

open Entangle_ir

type report = {
  id : string;
      (** the bundle's content address, read from the value: for a
          parsed bundle, the manifest id that {!Bundle.of_sexp} verified
          (and, the bundle being canonical, the id {!Bundle.make} gives
          its content); nothing is hashed again *)
  operators : int;  (** operator entries checked *)
  outputs_checked : int;  (** sequential outputs replayed *)
  exprs_replayed : int;  (** output-relation expressions evaluated *)
  tol : float;
  seed : int;
}

val check_exprs :
  what:string ->
  target:Tensor.t ->
  in_scope:(Tensor.t -> bool) ->
  scope_name:string ->
  constraints:Entangle_symbolic.Constraint_store.t ->
  Expr.t list ->
  (unit, Cert_error.t) result
(** The static checks one mapping list of [target] must pass, first
    failure wins: every expression is clean ([CERT007]), every leaf is
    [in_scope] ([CERT008], naming at most three of the leaves that are
    not, as {!Cert_error.names} does) and every inferred shape is
    provably [target]'s ([CERT009]). [what] and [scope_name] word the
    detail, which quotes [what], expressions and shapes as
    {!Cert_error.excerpt} does. {!check} runs it on every relation and
    operator entry of a bundle, and the certificate cache on every
    hit. *)

val replay :
  env:Interp.env ->
  gs:Graph.t ->
  gd:Graph.t ->
  inputs:(Tensor.t * Expr.t list) list ->
  outputs:(Tensor.t * Expr.t list) list ->
  (int, Cert_error.t) result
(** Execute a certificate on concrete data: the one replay behind
    {!check}, [Certify.replay] and so every caller that trusts a
    returned relation. Draws seeded random values (seed 42) for [gd]'s
    inputs, sharing one value per replication group (distributed inputs
    that some input binding lists as bare leaves, closed transitively),
    derives [gs]'s inputs by evaluating [inputs], interprets both graphs
    under [env] and compares every [outputs] expression with the
    sequential value within tol 1e-3. [Ok n] counts the expressions
    evaluated. A replication group whose members differ in dtype or
    concrete shape is [CERT009]; a missing binding is [CERT006]; up to 8
    mismatching output expressions, inconsistent input mappings or an
    interpreter exception are one [CERT010]. Never raises. *)

val check : Bundle.t -> (report, Cert_error.t) result
(** Verify an already-parsed (hence integrity-checked) bundle: the
    static checks, then {!replay} under the bundle's env. *)

val check_string : string -> (report, Cert_error.t) result
(** {!Bundle.of_string} followed by {!check}: the one-call path a
    consumer should use on untrusted bytes. *)
