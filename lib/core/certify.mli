(** Executable certification of a refinement result.

    The paper argues (section 3.3) that the relation ENTANGLE returns is
    a certificate of soundness. This module makes that operational. It
    is an adapter over the minimal verifier's
    {!Entangle_certexport.Verify.replay}, the one replay behind
    [verify], [cert verify] and the tests: it draws random concrete
    inputs for the distributed graph (unifying replicated inputs as
    dictated by the input relation), derives the sequential inputs by
    evaluating the input relation, runs both graphs with the reference
    interpreter, and replays every output-relation expression on the
    distributed outputs, checking numeric equality with the sequential
    outputs. *)

open Entangle_ir

val replay :
  env:Interp.env ->
  gs:Graph.t ->
  gd:Graph.t ->
  input_relation:Relation.t ->
  output_relation:Relation.t ->
  unit ->
  (unit, string) result
(** [Ok ()] when every mapped sequential output is reconstructed within
    tol 1e-3. Otherwise [Error] carries the verifier's detail: up to 8
    failing output expressions joined with ["; "], a replication group
    whose members differ in dtype or shape, a missing binding, or an
    exception the interpreter raised. Never raises. *)
