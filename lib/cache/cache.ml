open Entangle_ir
module Fingerprint = Entangle_fingerprint.Fingerprint

let ( let* ) = Result.bind
let err fmt = Fmt.kstr (fun s -> Error s) fmt

type t = { store : Store.t }

let create ?dir ?budget () =
  Result.map (fun store -> { store }) (Store.open_ ?dir ?budget ())

let dir t = Store.dir t.store

type provenance = Hit | Miss | Replay_failed of string

let pp_provenance ppf = function
  | Hit -> Fmt.string ppf "hit"
  | Miss -> Fmt.string ppf "miss"
  | Replay_failed reason -> Fmt.pf ppf "replay failed (%s)" reason

type entry =
  | Mapped of { mappings : Expr.t list; output_mappings : Expr.t list }
  | Unmapped

type ctx = {
  store : Store.t;
  base_fp : string;
  gs_env : Fingerprint.env;
  gd_env : Fingerprint.env;
  resolve : string -> Tensor.t option;
  gs : Graph.t;
  gd : Graph.t;
  whole_cone : string option;
  mutable inputs_memo : ((Tensor.t * Expr.t list) list * string) option;
  batch : (string, string) Hashtbl.t;
      (** payloads recorded by {!put}, written by {!flush} *)
}

let has_duplicate_names g =
  let names = List.sort String.compare (List.map Tensor.name (Graph.tensors g)) in
  let rec dup = function
    | a :: b :: _ when String.equal a b -> true
    | _ :: rest -> dup rest
    | [] -> false
  in
  dup names

let hex = Fingerprint.to_hex

(* Corpus fingerprint: per rule, its name, left-hand pattern, applier
   kind (syntactic right-hand patterns are hashed structurally;
   conditional appliers are closures and contribute only their kind) and
   the [constrained]/[nonlocal] flags, in corpus order. Renaming, adding,
   removing or reordering lemmas invalidates. It lives here rather than
   in [Entangle_fingerprint] because it inspects e-graph patterns. *)
let rule (r : Entangle_egraph.Rule.t) =
  let pat p = Fmt.str "%a" Entangle_egraph.Pattern.pp p in
  let applier =
    match r.Entangle_egraph.Rule.applier with
    | Entangle_egraph.Rule.Syntactic rhs -> "syn:" ^ pat rhs
    | Entangle_egraph.Rule.Conditional _ -> "dyn"
  in
  Fingerprint.strings
    [
      "rule";
      r.Entangle_egraph.Rule.name;
      pat r.Entangle_egraph.Rule.lhs;
      applier;
      string_of_bool r.Entangle_egraph.Rule.constrained;
      string_of_bool r.Entangle_egraph.Rule.nonlocal;
    ]

let rules rs = Fingerprint.strings ("rules" :: List.map hex (List.map rule rs))

(* Rendering and hashing a corpus of ~600 rules costs more than the rest
   of a context, and a process uses a handful of corpora, each built
   once from immutable [Rule.t] records. So the last few fingerprints
   are remembered by the physical identity of those records, across
   checks and the daemon's handler threads. A lost update between two
   threads only costs a recomputation. *)
let corpus_memo : (Entangle_egraph.Rule.t list * string) list Atomic.t =
  Atomic.make []

let corpus_memo_size = 8

let corpus_fp rs =
  let memo = Atomic.get corpus_memo in
  match List.find_opt (fun (rs', _) -> List.equal ( == ) rs rs') memo with
  | Some (_, fp) -> fp
  | None ->
      let fp = hex (rules rs) in
      Atomic.set corpus_memo
        ((rs, fp) :: List.filteri (fun i _ -> i < corpus_memo_size - 1) memo);
      fp

(* Seeded relation entries: each sequential tensor with its mapping set,
   in sorted order. *)
let seeds_fp ctx seeds =
  let entry (tensor, es) =
    hex (Fingerprint.tensor ctx.gs_env tensor)
    ^ "="
    ^ hex (Fingerprint.exprs ctx.gd_env es)
  in
  hex (Fingerprint.strings (List.sort String.compare (List.map entry seeds)))

(* A distributed node set, by its sorted node fingerprints (memoized in
   [gd_env] as the fingerprints of the nodes' outputs). *)
let nodes_fp gd_env nodes =
  hex
    (Fingerprint.strings
       (List.sort String.compare
          (List.map
             (fun n -> hex (Fingerprint.tensor gd_env (Node.output n)))
             nodes)))

let context (t : t) ~config_fp ~whole_graph ~rules:rs ~gs ~gd =
  if has_duplicate_names gd then None
  else
    let gd_env = Fingerprint.graph_env gd in
    (* The base covers everything the per-operator computation reads
       besides the operator, its seeds and its cone: the
       search-relevant configuration, the lemma corpus, the
       distributed constraint store (lemma conditions are discharged
       against it) and the distributed output set (output-grounded
       extraction filters on it). *)
    let base_fp =
      hex
        (Fingerprint.strings
           [
             "base/1";
             config_fp;
             corpus_fp rs;
             hex (Fingerprint.constraints (Graph.constraints gd));
             hex
               (Fingerprint.strings
                  (List.sort String.compare
                     (List.map
                        (fun tensor -> hex (Fingerprint.tensor gd_env tensor))
                        (Graph.outputs gd))));
           ])
    in
    Some
      {
        store = t.store;
        base_fp;
        gs_env = Fingerprint.graph_env gs;
        gd_env;
        resolve = Serial.tensor_by_name gd;
        gs;
        gd;
        (* With the frontier off every operator loads the whole
           distributed graph: one cone for the whole check. *)
        whole_cone =
          (if whole_graph then Some (nodes_fp gd_env (Graph.nodes gd))
           else None);
        inputs_memo = None;
        batch = Hashtbl.create 64;
      }

(* Does [seeds] hold exactly the graph-input entries [memo], in order,
   each with physically the same mapping list? A relation shares the
   entries no operator rebinds, so within one check this holds for every
   operator after the first. *)
let rec same_inputs ctx memo = function
  | [] -> ( match memo with [] -> true | _ :: _ -> false)
  | (t, es) :: seeds -> (
      if not (Graph.is_input ctx.gs t) then same_inputs ctx memo seeds
      else
        match memo with
        | (t', es') :: memo ->
            Tensor.equal t t' && es == es' && same_inputs ctx memo seeds
        | [] -> false)

(* The graph-input share of the seeds is the same for every operator of
   a check: hash it once and remember it in the context. *)
let inputs_fp ctx seeds =
  match ctx.inputs_memo with
  | Some (memo, fp) when same_inputs ctx memo seeds -> fp
  | _ ->
      let inputs =
        List.filter (fun (t, _) -> Graph.is_input ctx.gs t) seeds
      in
      let fp = seeds_fp ctx inputs in
      ctx.inputs_memo <- Some (inputs, fp);
      fp

let key ctx ~seeds v =
  let inputs = Node.inputs v in
  let own =
    List.filter (fun (t, _) -> List.exists (Tensor.equal t) inputs) seeds
  in
  let cone_fp =
    match ctx.whole_cone with
    | Some fp -> fp
    | None ->
        (* What the frontier search loads for these seeds (see
           [Node_rel.compute]), through the same two calls. *)
        let anchors = Graph.anchors ctx.gd (List.map snd own) in
        nodes_fp ctx.gd_env (List.concat (Graph.cone ctx.gd ~anchors))
  in
  hex
    (Fingerprint.strings
       [
         "key/2";
         ctx.base_fp;
         inputs_fp ctx seeds;
         hex (Fingerprint.tensor ctx.gs_env (Node.output v));
         seeds_fp ctx own;
         cone_fp;
       ])

(* --- payload (de)serialization ------------------------------------------ *)

let entry_to_payload entry =
  let sexp =
    match entry with
    | Unmapped -> Sexp.list [ Sexp.atom "entry"; Sexp.atom "unmapped" ]
    | Mapped { mappings; output_mappings } ->
        Sexp.list
          [
            Sexp.atom "entry";
            Sexp.atom "mapped";
            Sexp.list (List.map Serial.expr_to_sexp mappings);
            Sexp.list (List.map Serial.expr_to_sexp output_mappings);
          ]
  in
  Sexp.to_string sexp

let parse_payload ~resolve payload =
  let* sexp = Sexp.of_string payload in
  match sexp with
  | Sexp.List [ Sexp.Atom "entry"; Sexp.Atom "unmapped" ] -> Ok Unmapped
  | Sexp.List
      [ Sexp.Atom "entry"; Sexp.Atom "mapped"; Sexp.List maps; Sexp.List outs ]
    ->
      let* mappings = Serial.map_result (Serial.expr_of_sexp ~resolve) maps in
      let* output_mappings =
        Serial.map_result (Serial.expr_of_sexp ~resolve) outs
      in
      if mappings = [] then err "mapped entry with no mappings"
      else Ok (Mapped { mappings; output_mappings })
  | s -> err "malformed cache entry %s" (Sexp.excerpt s)

let validate_payload payload =
  (* Structure-only: resolve every leaf to a placeholder so the parse
     exercises the full grammar without a graph at hand. *)
  let resolve name = Some (Tensor.create ~name Shape.scalar) in
  Result.map (fun _ -> ()) (parse_payload ~resolve payload)

(* --- replay validation --------------------------------------------------- *)

let replay ctx v entry =
  match entry with
  | Unmapped -> Ok Unmapped
  | Mapped { mappings; output_mappings } -> (
      let check ~what ~in_scope ~scope_name es =
        Entangle_certexport.Verify.check_exprs ~what ~target:(Node.output v)
          ~in_scope ~scope_name ~constraints:(Graph.constraints ctx.gd) es
      in
      match
        let* () =
          check ~what:"cached mapping" ~in_scope:(Graph.mem_tensor ctx.gd)
            ~scope_name:"distributed tensors" mappings
        in
        check ~what:"cached output mapping" ~in_scope:(Graph.is_output ctx.gd)
          ~scope_name:"distributed outputs" output_mappings
      with
      | Ok () -> Ok entry
      | Error e -> Error (Entangle_certexport.Cert_error.to_string e))

let find ctx ~key v =
  match Store.get ctx.store ~key with
  | None -> `Miss
  | Some payload -> (
      match
        let* entry = parse_payload ~resolve:ctx.resolve payload in
        replay ctx v entry
      with
      | Ok entry -> `Hit entry
      | Error reason -> `Replay_failed reason)

let put ctx ~key entry =
  match entry with
  | Mapped { mappings = []; _ } -> ()
  | _ -> Hashtbl.replace ctx.batch key (entry_to_payload entry)

let pending ctx = Hashtbl.length ctx.batch

let flush ctx =
  let entries =
    List.sort compare (Hashtbl.fold (fun k p acc -> (k, p) :: acc) ctx.batch [])
  in
  Hashtbl.reset ctx.batch;
  match Store.put_all ctx.store entries with Ok bytes -> bytes | Error _ -> 0

(* --- maintenance --------------------------------------------------------- *)

let stats (t : t) = Store.stats t.store
let clear (t : t) = Store.clear t.store
let gc ?budget (t : t) = Store.gc ?budget t.store
let export_archive (t : t) = Store.export_all t.store

let import_archive (t : t) text =
  Store.import_all
    ~check:(fun ~key:_ payload -> Result.is_ok (validate_payload payload))
    t.store text

let verify (t : t) =
  Store.verify t.store ~check:(fun ~key:_ payload ->
      Result.is_ok (validate_payload payload))
