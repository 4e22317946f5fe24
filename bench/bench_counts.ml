open Entangle_models

let words f =
  Gc.minor ();
  let bytes0 = Gc.allocated_bytes () in
  let result = f () in
  Gc.minor ();
  let bytes = Gc.allocated_bytes () -. bytes0 in
  (int_of_float (bytes /. float_of_int (Sys.word_size / 8)), result)

let check (inst : Instance.t) =
  let rules = Entangle_lemmas.Registry.rules_for_model inst.family in
  words (fun () ->
      Entangle.Refine.check ~rules ~gs:inst.gs ~gd:inst.gd
        ~input_relation:inst.input_relation ())

let replay_words () =
  let inst = Gpt.build ~layers:4 ~degree:8 ~heads:8 () in
  match Instance.check inst with
  | Error _ -> Error "gpt-d8l4 does not refine"
  | Ok success -> (
      let words, replayed =
        words (fun () ->
            Entangle.Certify.replay ~env:inst.env ~gs:inst.gs ~gd:inst.gd
              ~input_relation:inst.input_relation
              ~output_relation:success.Entangle.Refine.output_relation ())
      in
      match replayed with
      | Error e -> Error ("gpt-d8l4's certificate: " ^ e)
      | Ok () -> Ok words)
