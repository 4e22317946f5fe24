type code =
  | Parse_error
  | Version_skew
  | Manifest_malformed
  | Section_corrupt
  | Statement_mismatch
  | Incomplete
  | Unclean
  | Leaf_out_of_scope
  | Shape_mismatch
  | Replay_mismatch

let code_string = function
  | Parse_error -> "CERT001"
  | Version_skew -> "CERT002"
  | Manifest_malformed -> "CERT003"
  | Section_corrupt -> "CERT004"
  | Statement_mismatch -> "CERT005"
  | Incomplete -> "CERT006"
  | Unclean -> "CERT007"
  | Leaf_out_of_scope -> "CERT008"
  | Shape_mismatch -> "CERT009"
  | Replay_mismatch -> "CERT010"

let mnemonic = function
  | Parse_error -> "parse-error"
  | Version_skew -> "version-skew"
  | Manifest_malformed -> "manifest-malformed"
  | Section_corrupt -> "section-corrupt"
  | Statement_mismatch -> "statement-mismatch"
  | Incomplete -> "incomplete"
  | Unclean -> "unclean-expression"
  | Leaf_out_of_scope -> "leaf-out-of-scope"
  | Shape_mismatch -> "shape-mismatch"
  | Replay_mismatch -> "replay-mismatch"

type t = { code : code; detail : string }

let make code detail = { code; detail }
let pp ppf e = Fmt.pf ppf "%s (%s): %s" (code_string e.code) (mnemonic e.code) e.detail
let to_string e = Fmt.str "%a" pp e

let named = 3

let names ns =
  let module Sexp = Entangle_ir.Sexp in
  let shown = List.filteri (fun i _ -> i < named) ns in
  let rest = List.length ns - List.length shown in
  String.concat ", " (List.map (fun n -> Sexp.excerpt (Sexp.atom n)) shown)
  ^ if rest > 0 then Fmt.str " and %d more" rest else ""

let excerpt pp x =
  let s = Fmt.str "%a" pp x and bound = Entangle_ir.Sexp.excerpt_bytes in
  if String.length s <= bound then s else String.sub s 0 bound ^ "..."
