(* Prints the SHA-256 of the full relation that checking one
   cold-search entry records: the entry built as the benchmark's plan
   builds it, checked with the cache off, the relation rendered by
   [Relation_io.to_string].

   Usage: relation_pin.exe LABEL (a label of [Perfbench.Plan.zoo], e.g.
   gpt-d8l4). Exits 1 when the entry does not refine, 2 on a bad
   label.

   A relation lists a replicated tensor's leaf mappings in an order
   that depends on the tensor ids the process handed out before the
   check, so the digest is only stable from a process of its own. *)

let () =
  match Sys.argv with
  | [| _; label |] -> (
      match
        List.find_opt
          (fun (z : Perfbench.Plan.zoo) -> String.equal z.label label)
          Perfbench.Plan.zoo
      with
      | None ->
          prerr_endline ("relation_pin: no cold-search entry " ^ label);
          exit 2
      | Some z -> (
          match Entangle_models.Instance.check (z.build ()) with
          | Ok success ->
              print_endline
                (Entangle_fingerprint.Sha256.hex
                   (Entangle.Relation_io.to_string
                      success.Entangle.Refine.full_relation))
          | Error _ ->
              prerr_endline ("relation_pin: " ^ label ^ " does not refine");
              exit 1))
  | _ ->
      prerr_endline "usage: relation_pin.exe LABEL";
      exit 2
