open Entangle_ir
module Bundle = Entangle_certexport.Bundle
module Fingerprint = Entangle_fingerprint.Fingerprint

module SM = Map.Make (String)

let env_bindings (env : Interp.env) = SM.bindings env

let bundle ?gs ?gd ~producer ~env ~input_relation (success : Refine.success) =
  let ( let* ) = Result.bind in
  (* The statement is hashed with the check's own envs, over the graphs
     the check ran on; a caller that names the graphs must name those. *)
  let gs_env, gd_env = Lazy.force success.Refine.envs in
  let checked g env =
    match g with None -> true | Some g -> Fingerprint.env_graph env == g
  in
  let* () =
    if checked gs gs_env && checked gd gd_env then Ok ()
    else Error "the graphs are not the ones the check ran on"
  in
  let* operators =
    List.fold_left
      (fun acc n ->
        let* acc = acc in
        let out = Node.output n in
        match Relation.find success.Refine.full_relation out with
        | [] ->
            Error
              (Fmt.str
                 "operator %s has no relation entry to export (partial result?)"
                 (Tensor.name out))
        | mappings ->
            Ok
              ({ Bundle.op_output = Tensor.name out; op_mappings = mappings }
              :: acc))
      (Ok [])
      (Graph.nodes (Fingerprint.env_graph gs_env))
  in
  Ok
    (Bundle.make ~producer ~gs_env ~gd_env ~env:(env_bindings env)
       ~inputs:(Relation.bindings input_relation)
       ~outputs:(Relation.bindings success.Refine.output_relation)
       ~operators:(List.rev operators) ())
