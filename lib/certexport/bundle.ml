open Entangle_ir
module Fp = Entangle_fingerprint.Fingerprint

let schema = 1

type operator_entry = { op_output : string; op_mappings : Expr.t list }

(* ------------------------------------------------------------------ *)
(* Statement fingerprints: what the bundle *claims to certify*, hashed
   with the same Merkle discipline as the cache keys so a bundle is
   invariant under tensor-id renaming but pinned to names, shapes,
   dtypes, operators and constraints. *)

type statement = {
  fp_gs : string;
  fp_gd : string;
  fp_env : string;
  fp_inputs : string;
  fp_outputs : string;
  fp_operators : string;
}

(* The content, then what was hashed for it: [make] and [of_sexp] fill
   the last three fields once, and nothing recomputes them. *)
type t = {
  producer : string;
  gs : Graph.t;
  gd : Graph.t;
  env : (string * int) list;
  inputs : (Tensor.t * Expr.t list) list;
  outputs : (Tensor.t * Expr.t list) list;
  operators : operator_entry list;
  statement : statement;
  section_digests : (string * string) list;
  id : string;
}

let statement_fields s =
  [
    ("gs", s.fp_gs);
    ("gd", s.fp_gd);
    ("env", s.fp_env);
    ("inputs", s.fp_inputs);
    ("outputs", s.fp_outputs);
    ("operators", s.fp_operators);
  ]

let relation_fp gs_env gd_env bindings =
  Fp.to_hex
    (Fp.strings
       (List.sort String.compare
          (List.map
             (fun (t, es) ->
               Fp.to_hex
                 (Fp.strings
                    [
                      Fp.to_hex (Fp.tensor gs_env t); Fp.to_hex (Fp.exprs gd_env es);
                    ]))
             bindings)))

(* One Merkle pass per graph: its env serves the graph fingerprint and
   every relation and operator entry. *)
let statement_of ~gs_env ~gd_env ~env ~inputs ~outputs ~operators =
  let fp_env =
    Fp.to_hex
      (Fp.strings
         ("env"
         :: List.sort String.compare
              (List.map (fun (s, v) -> s ^ "=" ^ string_of_int v) env)))
  in
  let fp_operators =
    Fp.to_hex
      (Fp.strings
         ("operators"
         :: List.sort String.compare
              (List.map
                 (fun e ->
                   Fp.to_hex
                     (Fp.strings [ e.op_output; Fp.to_hex (Fp.exprs gd_env e.op_mappings) ]))
                 operators)))
  in
  {
    fp_gs = Fp.to_hex (Fp.graph gs_env);
    fp_gd = Fp.to_hex (Fp.graph gd_env);
    fp_env;
    fp_inputs = relation_fp gs_env gd_env inputs;
    fp_outputs = relation_fp gs_env gd_env outputs;
    fp_operators;
  }

let statement b = b.statement
let id b = b.id

(* ------------------------------------------------------------------ *)
(* Section serialization. Each section renders to one s-expression;
   its content digest is taken over the canonical pretty-printed bytes
   of that s-expression, so any semantic change to a section is
   detected while re-indentation of the file is harmless. *)

let section_names = [ "graphs"; "env"; "relations"; "operators" ]

let section name payload = Sexp.list (Sexp.atom "section" :: Sexp.atom name :: payload)

let section_digest sx =
  Entangle_fingerprint.Sha256.hex (Sexp.to_string sx)

let relation_entries bindings =
  List.map
    (fun (t, es) ->
      Sexp.list (Sexp.atom (Tensor.name t) :: List.map Serial.expr_to_sexp es))
    bindings

(* The four sections of some content, in [section_names] order. *)
let sections ~gs ~gd ~env ~inputs ~outputs ~operators =
  [
    ( "graphs",
      section "graphs" [ Serial.graph_to_sexp gs; Serial.graph_to_sexp gd ] );
    ( "env",
      section "env"
        (List.map
           (fun (s, v) -> Sexp.list [ Sexp.atom s; Sexp.atom (string_of_int v) ])
           env) );
    ( "relations",
      section "relations"
        [
          Sexp.list (Sexp.atom "input" :: relation_entries inputs);
          Sexp.list (Sexp.atom "output" :: relation_entries outputs);
        ] );
    ( "operators",
      section "operators"
        (List.map
           (fun e ->
             Sexp.list
               (Sexp.atom e.op_output :: List.map Serial.expr_to_sexp e.op_mappings))
           operators) );
  ]

let id_of ~producer ~stmt ~section_digests =
  Fp.to_hex
    (Fp.strings
       ("entangle-cert" :: string_of_int schema :: producer
       :: (List.map snd (statement_fields stmt)
          @ List.map (fun (n, d) -> n ^ "=" ^ d) section_digests)))

let make ~producer ~gs_env ~gd_env ~env ~inputs ~outputs ~operators () =
  let gs = Fp.env_graph gs_env and gd = Fp.env_graph gd_env in
  let statement =
    statement_of ~gs_env ~gd_env ~env ~inputs ~outputs ~operators
  in
  let section_digests =
    List.map
      (fun (n, sx) -> (n, section_digest sx))
      (sections ~gs ~gd ~env ~inputs ~outputs ~operators)
  in
  let id = id_of ~producer ~stmt:statement ~section_digests in
  {
    producer;
    gs;
    gd;
    env;
    inputs;
    outputs;
    operators;
    statement;
    section_digests;
    id;
  }

let manifest_sexp b =
  let pair (n, v) = Sexp.list [ Sexp.atom n; Sexp.atom v ] in
  Sexp.list
    [
      Sexp.atom "manifest";
      Sexp.list [ Sexp.atom "id"; Sexp.atom b.id ];
      Sexp.list (Sexp.atom "statement" :: List.map pair (statement_fields b.statement));
      Sexp.list (Sexp.atom "sections" :: List.map pair b.section_digests);
    ]

let to_sexp b =
  Sexp.list
    (Sexp.atom "entangle-cert"
    :: Sexp.list [ Sexp.atom "schema"; Sexp.atom (string_of_int schema) ]
    :: Sexp.list [ Sexp.atom "producer"; Sexp.atom b.producer ]
    :: manifest_sexp b
    :: List.map snd
         (sections ~gs:b.gs ~gd:b.gd ~env:b.env ~inputs:b.inputs
            ~outputs:b.outputs ~operators:b.operators))

let to_string b = Sexp.to_string (to_sexp b) ^ "\n"

(* ------------------------------------------------------------------ *)
(* Parsing + integrity: CERT001 framing, CERT002 version, CERT003
   structure, CERT004 section digests, CERT005 statement binding. *)

module E = Cert_error

let ( let* ) = Result.bind

let err code fmt = Fmt.kstr (fun d -> Error (E.make code d)) fmt

let find_field name items =
  List.find_map
    (function
      | Sexp.List (Sexp.Atom n :: rest) when String.equal n name -> Some rest
      | _ -> None)
    items

let atom_field code name items =
  match find_field name items with
  | Some [ Sexp.Atom v ] -> Ok v
  | Some _ -> err code "field %s is not a single atom" name
  | None -> err code "missing field %s" name

let pairs_of code what items =
  List.fold_left
    (fun acc sx ->
      let* acc = acc in
      match sx with
      | Sexp.List [ Sexp.Atom n; Sexp.Atom v ] -> Ok ((n, v) :: acc)
      | _ -> err code "malformed %s entry" what)
    (Ok []) items
  |> Result.map List.rev

type manifest = {
  m_id : string;
  m_statement : (string * string) list;
  m_sections : (string * string) list;
}

let parse_manifest items =
  match find_field "manifest" items with
  | None -> err E.Parse_error "missing manifest"
  | Some fields ->
      let* m_id = atom_field E.Manifest_malformed "id" fields in
      let* stmt =
        match find_field "statement" fields with
        | None -> err E.Manifest_malformed "manifest missing statement"
        | Some ps -> pairs_of E.Manifest_malformed "statement" ps
      in
      let* secs =
        match find_field "sections" fields with
        | None -> err E.Manifest_malformed "manifest missing sections"
        | Some ps -> pairs_of E.Manifest_malformed "sections" ps
      in
      Ok { m_id; m_statement = stmt; m_sections = secs }

(* Expression parsing that distinguishes "unknown leaf" (CERT008) from
   structural damage (CERT003): unresolvable leaves resolve to a fresh
   placeholder tensor and are recorded, so the caller can report scope
   errors with the offending names. *)
let parse_exprs ~gd_tensor sexps =
  let missing = ref [] and seen = Hashtbl.create 8 in
  let resolve name =
    match gd_tensor name with
    | Some t -> Some t
    | None ->
        if not (Hashtbl.mem seen name) then begin
          Hashtbl.replace seen name ();
          missing := name :: !missing
        end;
        Some (Tensor.create ~name Shape.scalar)
  in
  let* es =
    List.fold_left
      (fun acc sx ->
        let* acc = acc in
        match Serial.expr_of_sexp ~resolve sx with
        | Ok e -> Ok (e :: acc)
        | Error m -> err E.Manifest_malformed "bad expression: %s" m)
      (Ok []) sexps
    |> Result.map List.rev
  in
  match !missing with
  | [] -> Ok es
  | names ->
      err E.Leaf_out_of_scope
        "expression leaves not in the distributed graph: %s"
        (E.names (List.rev names))

let parse_relation ~what ~gs_tensor ~gd_tensor entries =
  List.fold_left
    (fun acc sx ->
      let* acc = acc in
      match sx with
      | Sexp.List (Sexp.Atom target :: exprs) -> (
          match gs_tensor target with
          | None ->
              err E.Leaf_out_of_scope
                "%s entry targets %s, which is not in the sequential graph"
                what (Sexp.excerpt (Sexp.Atom target))
          | Some t ->
              let* es = parse_exprs ~gd_tensor exprs in
              Ok ((t, es) :: acc))
      | _ -> err E.Manifest_malformed "malformed %s entry" what)
    (Ok []) entries
  |> Result.map List.rev

let of_sexp top =
  let* items =
    match top with
    | Sexp.List (Sexp.Atom "entangle-cert" :: items) -> Ok items
    | _ -> err E.Parse_error "not an entangle-cert document"
  in
  let* version = atom_field E.Parse_error "schema" items in
  let* () =
    if String.equal version (string_of_int schema) then Ok ()
    else
      err E.Version_skew "bundle schema %s, verifier speaks %d"
        (Sexp.excerpt (Sexp.Atom version)) schema
  in
  let* producer = atom_field E.Parse_error "producer" items in
  let* manifest = parse_manifest items in
  (* Collect sections and check the content digests before trusting
     any byte of them. *)
  let found =
    List.filter_map
      (function
        | Sexp.List (Sexp.Atom "section" :: Sexp.Atom n :: payload) as sx ->
            Some (n, (sx, payload))
        | _ -> None)
      items
  in
  let* () =
    List.fold_left
      (fun acc name ->
        let* () = acc in
        match List.filter (fun (n, _) -> String.equal n name) found with
        | [ _ ] -> Ok ()
        | [] -> err E.Manifest_malformed "missing section %s" name
        | _ -> err E.Manifest_malformed "duplicate section %s" name)
      (Ok ()) section_names
  in
  (* One digest list per content: the four sections, in order, so the
     id the manifest claims is the one [make] gives the content. *)
  let* () =
    if List.equal String.equal (List.map fst manifest.m_sections) section_names
    then Ok ()
    else
      err E.Manifest_malformed
        "manifest sections must be graphs, env, relations and operators, in \
         that order"
  in
  let* () =
    List.fold_left
      (fun acc (name, claimed) ->
        let* () = acc in
        let got = section_digest (fst (List.assoc name found)) in
        if String.equal claimed got then Ok ()
        else
          err E.Section_corrupt
            "section %s content digest %s does not match manifest %s" name got
            (Sexp.excerpt (Sexp.Atom claimed)))
      (Ok ()) manifest.m_sections
  in
  (* Decode sections. *)
  let payload name = snd (List.assoc name found) in
  let* gs, gd =
    match payload "graphs" with
    | [ s; d ] -> (
        match (Serial.graph_of_sexp s, Serial.graph_of_sexp d) with
        | Ok gs, Ok gd -> Ok (gs, gd)
        | Error m, _ -> err E.Manifest_malformed "sequential graph: %s" m
        | _, Error m -> err E.Manifest_malformed "distributed graph: %s" m)
    | _ -> err E.Manifest_malformed "graphs section must carry exactly two graphs"
  in
  let* env =
    let* ps = pairs_of E.Manifest_malformed "env" (payload "env") in
    List.fold_left
      (fun acc (s, v) ->
        let* acc = acc in
        match int_of_string_opt v with
        | Some n -> Ok ((s, n) :: acc)
        | None ->
            err E.Manifest_malformed "env binding %s=%s is not an integer"
              (Sexp.excerpt (Sexp.Atom s)) (Sexp.excerpt (Sexp.Atom v)))
      (Ok []) ps
    |> Result.map List.rev
  in
  let gs_tensor = Serial.tensor_by_name gs
  and gd_tensor = Serial.tensor_by_name gd in
  let* inputs, outputs =
    match (find_field "input" (payload "relations"), find_field "output" (payload "relations")) with
    | Some ins, Some outs ->
        let* inputs =
          parse_relation ~what:"input-relation" ~gs_tensor ~gd_tensor ins
        in
        let* outputs =
          parse_relation ~what:"output-relation" ~gs_tensor ~gd_tensor outs
        in
        Ok (inputs, outputs)
    | _ -> err E.Manifest_malformed "relations section needs input and output lists"
  in
  let* operators =
    let* entries =
      parse_relation ~what:"operator" ~gs_tensor ~gd_tensor
        (payload "operators")
    in
    Ok
      (List.map
         (fun (t, es) -> { op_output = Tensor.name t; op_mappings = es })
         entries)
  in
  (* Canonical form: each section as written is the one the decoded
     content encodes to, so the digests checked above are the ones
     [make] computes (a tree compare; nothing is rendered or hashed). *)
  let* () =
    List.fold_left
      (fun acc (name, canonical) ->
        let* () = acc in
        if (fst (List.assoc name found) : Sexp.t) = canonical then Ok ()
        else
          err E.Manifest_malformed "section %s is not in canonical form" name)
      (Ok ()) (sections ~gs ~gd ~env ~inputs ~outputs ~operators)
  in
  (* Statement binding: the manifest's fingerprints must match what the
     carried content actually hashes to, else the bundle was rebound. *)
  let statement =
    statement_of ~gs_env:(Fp.graph_env gs) ~gd_env:(Fp.graph_env gd) ~env
      ~inputs ~outputs ~operators
  in
  let* () =
    List.fold_left
      (fun acc (name, fp) ->
        let* () = acc in
        match List.assoc_opt name manifest.m_statement with
        | None -> err E.Manifest_malformed "manifest statement misses %s" name
        | Some claimed ->
            if String.equal claimed fp then Ok ()
            else
              err E.Statement_mismatch
                "statement fingerprint %s: recomputed %s, manifest claims %s"
                name fp (Sexp.excerpt (Sexp.Atom claimed)))
      (Ok ()) (statement_fields statement)
  in
  let section_digests = manifest.m_sections in
  let id = id_of ~producer ~stmt:statement ~section_digests in
  let* () =
    if String.equal id manifest.m_id then Ok ()
    else
      err E.Statement_mismatch "bundle id recomputed %s, manifest claims %s" id
        (Sexp.excerpt (Sexp.Atom manifest.m_id))
  in
  Ok
    {
      producer;
      gs;
      gd;
      env;
      inputs;
      outputs;
      operators;
      statement;
      section_digests;
      id;
    }

let of_string text =
  match Sexp.of_string text with
  | Error m -> err E.Parse_error "%s" m
  | Ok sx -> of_sexp sx
