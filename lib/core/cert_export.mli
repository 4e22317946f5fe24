(** Bridge from a refinement result to a portable certificate bundle.

    {!Refine.check} already computes everything a bundle carries — the
    complete clean output relation plus the accumulated per-operator
    relation — whether the run was cold (fresh saturation) or warm
    (certificate-cache replay). This module packages that result with
    the statement it certifies; the bundle itself (format, manifest,
    verification) lives in the egraph-free
    {!Entangle_certexport} library. *)

open Entangle_ir

val env_bindings : Interp.env -> (string * int) list

val bundle :
  ?gs:Graph.t ->
  ?gd:Graph.t ->
  producer:string ->
  env:Interp.env ->
  input_relation:Relation.t ->
  Refine.success ->
  (Entangle_certexport.Bundle.t, string) result
(** Build a bundle from a successful check, over the graphs it ran on
    and with its fingerprint envs ([success.envs]), so an export after
    a cached check builds none. [env] must assign every shape symbol
    (the zoo instances carry one). [Error] when [gs] or [gd] is given
    and is not the graph the check ran on, or when the success's
    relation does not cover some sequential operator — a bundle
    certifies a complete refinement, nothing less. *)
