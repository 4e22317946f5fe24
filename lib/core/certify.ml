let replay ~env ~gs ~gd ~input_relation ~output_relation () =
  match
    Entangle_certexport.Verify.replay ~env ~gs ~gd
      ~inputs:(Relation.bindings input_relation)
      ~outputs:(Relation.bindings output_relation)
  with
  | Ok _ -> Ok ()
  | Error e -> Error e.Entangle_certexport.Cert_error.detail
