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
  gs_inputs : Tensor.Set.t;
  gd_tensors : Tensor.Set.t;
  gd_outputs : Tensor.Set.t;
  resolve : string -> Tensor.t option;
  gd : Graph.t;
  sources : Node.t list;  (** distributed nodes without inputs *)
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
    let gd_tensors = Graph.tensors gd in
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
        gs_inputs = Tensor.Set.of_list (Graph.inputs gs);
        gd_tensors = Tensor.Set.of_list gd_tensors;
        gd_outputs = Tensor.Set.of_list (Graph.outputs gd);
        resolve = Serial.tensor_by_name gd;
        gd;
        sources = List.filter (fun n -> Node.inputs n = []) (Graph.nodes gd);
        (* With the frontier off every operator loads the whole
           distributed graph: one cone for the whole check. *)
        whole_cone =
          (if whole_graph then Some (nodes_fp gd_env (Graph.nodes gd))
           else None);
        inputs_memo = None;
        batch = Hashtbl.create 64;
      }

(* The distributed cone: the node set the frontier loop (Listing 3)
   would load, replayed as a pure tensor-set fixpoint — the loop's
   membership tests never consult the e-graph, so the loaded set is a
   function of the anchor tensors and the distributed graph alone. The
   loop scans every node once per wave; the same least fixpoint comes
   from a worklist over the consumers index that counts down each
   node's distinct inputs not yet available, in time proportional to
   the cone. Nodes without inputs load in the loop's first wave, so
   they seed the worklist with the anchors. *)
let cone_from gd ~sources ~anchors =
  let available = Hashtbl.create 64 and waiting = Hashtbl.create 64 in
  let acc = ref [] in
  let rec make_available t =
    if not (Hashtbl.mem available (Tensor.id t)) then begin
      Hashtbl.replace available (Tensor.id t) ();
      List.iter arrive (Graph.consumers gd t)
    end
  (* One of [n]'s distinct inputs became available. *)
  and arrive n =
    let missing =
      match Hashtbl.find_opt waiting (Node.id n) with
      | Some k -> k - 1
      | None -> List.length (Node.distinct_inputs n) - 1
    in
    Hashtbl.replace waiting (Node.id n) missing;
    if missing = 0 then load n
  and load n =
    acc := n :: !acc;
    make_available (Node.output n)
  in
  Tensor.Set.iter make_available anchors;
  List.iter load sources;
  !acc

let cone gd ~anchors =
  cone_from gd
    ~sources:(List.filter (fun n -> Node.inputs n = []) (Graph.nodes gd))
    ~anchors

(* Does [seeds] hold exactly the graph-input entries [memo], in order,
   each with physically the same mapping list? A relation shares the
   entries no operator rebinds, so within one check this holds for every
   operator after the first. *)
let rec same_inputs ctx memo = function
  | [] -> ( match memo with [] -> true | _ :: _ -> false)
  | (t, es) :: seeds -> (
      if not (Tensor.Set.mem t ctx.gs_inputs) then same_inputs ctx memo seeds
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
        List.filter (fun (t, _) -> Tensor.Set.mem t ctx.gs_inputs) seeds
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
        (* Cone anchors: the distributed leaves of the mappings of [v]'s
           inputs, mirroring the frontier loop's initial T_rel. *)
        let anchors =
          List.fold_left
            (fun acc (_, es) ->
              List.fold_left
                (fun acc e ->
                  List.fold_left
                    (fun acc leaf ->
                      if Tensor.Set.mem leaf ctx.gd_tensors then
                        Tensor.Set.add leaf acc
                      else acc)
                    acc (Expr.leaves e))
                acc es)
            Tensor.Set.empty own
        in
        nodes_fp ctx.gd_env (cone_from ctx.gd ~sources:ctx.sources ~anchors)
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
  | Mapped { mappings; output_mappings } ->
      let store = Graph.constraints ctx.gd in
      let out_shape = Tensor.shape (Node.output v) in
      let check_expr ~outputs_only e =
        if not (Expr.is_clean e) then
          err "cached expression %a is not clean" Expr.pp e
        else if
          outputs_only
          && not
               (List.for_all
                  (fun leaf -> Tensor.Set.mem leaf ctx.gd_outputs)
                  (Expr.leaves e))
        then
          err "cached output mapping %a has a non-output leaf" Expr.pp e
        else
          let* shape = Expr.infer_shape store e in
          if Shape.equal store shape out_shape then Ok ()
          else
            err "cached expression %a has shape %a, operator output has %a"
              Expr.pp e Shape.pp shape Shape.pp out_shape
      in
      let rec all ~outputs_only = function
        | [] -> Ok ()
        | e :: rest ->
            let* () = check_expr ~outputs_only e in
            all ~outputs_only rest
      in
      let* () = all ~outputs_only:false mappings in
      let* () = all ~outputs_only:true output_mappings in
      Ok entry

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
