open Entangle_ir

let ( let* ) = Result.bind
let err fmt = Fmt.kstr (fun s -> Error s) fmt

(* Expression rendering/parsing lives in {!Serial} (the certificate
   cache shares it); this module only wraps it in the relation entry
   syntax. *)
let to_sexp relation =
  let entry (t, exprs) =
    List.map
      (fun e -> Sexp.list [ Sexp.atom (Tensor.name t); Serial.expr_to_sexp e ])
      exprs
  in
  Sexp.list
    (Sexp.atom "relation" :: List.concat_map entry (Relation.bindings relation))

let to_string relation = Sexp.to_string (to_sexp relation)

let of_sexp ~gs ~gd = function
  | Sexp.List (Sexp.Atom "relation" :: entries) ->
      let gs_tensor = Serial.tensor_by_name gs
      and resolve = Serial.tensor_by_name gd in
      List.fold_left
        (fun acc entry ->
          let* acc = acc in
          match entry with
          | Sexp.List [ Sexp.Atom name; expr ] -> (
              match gs_tensor name with
              | None ->
                  err "unknown sequential tensor %s"
                    (Sexp.excerpt (Sexp.Atom name))
              | Some t ->
                  let* e = Serial.expr_of_sexp ~resolve expr in
                  Ok (Relation.add acc t e))
          | s -> err "malformed relation entry %s" (Sexp.excerpt s))
        (Ok Relation.empty) entries
  | s -> err "malformed relation %s" (Sexp.excerpt s)

let of_string ~gs ~gd input =
  let* sexp = Sexp.of_string input in
  of_sexp ~gs ~gd sexp
