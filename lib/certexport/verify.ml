open Entangle_symbolic
open Entangle_ir
module E = Cert_error

let ( let* ) = Result.bind
let err code fmt = Fmt.kstr (fun d -> Error (E.make code d)) fmt

(* A tensor name in a detail, bounded as {!Cert_error.names} bounds
   each of its names. *)
let name n = E.names [ n ]

type report = {
  id : string;
  operators : int;
  outputs_checked : int;
  exprs_replayed : int;
  tol : float;
  seed : int;
}

(* ---------------- static checks (CERT006..CERT009) ---------------- *)

let symbols_of_graph g =
  let add acc d = List.fold_left (fun acc s -> s :: acc) acc (Symdim.symbols d) in
  let of_shape acc sh = List.fold_left add acc sh in
  let acc = List.fold_left (fun acc t -> of_shape acc (Tensor.shape t)) [] (Graph.tensors g) in
  let acc =
    List.fold_left
      (fun acc c ->
        match c with
        | Constraint_store.Ge d | Constraint_store.Eq d -> add acc d)
      acc
      (Constraint_store.constraints (Graph.constraints g))
  in
  List.sort_uniq String.compare acc

let check_env (b : Bundle.t) =
  let bound = Hashtbl.create 16 in
  List.iter (fun (s, _) -> Hashtbl.replace bound s ()) b.env;
  let missing =
    List.filter
      (fun s -> not (Hashtbl.mem bound s))
      (List.sort_uniq String.compare (symbols_of_graph b.gs @ symbols_of_graph b.gd))
  in
  match missing with
  | [] -> Ok ()
  | ss -> err E.Incomplete "env leaves shape symbols unbound: %s" (E.names ss)

let check_coverage what covered required =
  let covered = Tensor.Set.of_list covered in
  match List.filter (fun t -> not (Tensor.Set.mem t covered)) required with
  | [] -> Ok ()
  | ts ->
      err E.Incomplete "%s misses %s" what (E.names (List.map Tensor.name ts))

let check_exprs ~what ~target ~in_scope ~scope_name ~constraints es =
  (* [what] may hold a name from a hostile bundle: bounded, and only
     when a check fails. *)
  let fail code fmt = err code ("%s: " ^^ fmt) (E.excerpt Fmt.string what) in
  List.fold_left
    (fun acc e ->
      let* () = acc in
      let* () =
        if Expr.is_clean e then Ok ()
        else fail E.Unclean "%s is not clean" (E.excerpt Expr.pp e)
      in
      let* () =
        if Expr.fold_leaves (fun ok l -> ok && in_scope l) true e then Ok ()
        else
          fail E.Leaf_out_of_scope "leaves %s are not %s"
            (E.names
               (List.filter_map
                  (fun l -> if in_scope l then None else Some (Tensor.name l))
                  (Expr.leaves e)))
            scope_name
      in
      match Expr.infer_shape constraints e with
      | Error m ->
          fail E.Shape_mismatch "shape inference failed: %s"
            (E.excerpt Fmt.string m)
      | Ok sh ->
          if Shape.equal constraints sh (Tensor.shape target) then Ok ()
          else
            fail E.Shape_mismatch "%s has shape %s, expected %s"
              (E.excerpt Expr.pp e) (E.excerpt Shape.pp sh)
              (E.excerpt Shape.pp (Tensor.shape target)))
    (Ok ()) es

let check_static (b : Bundle.t) =
  let* () = check_env b in
  let* () =
    check_coverage "input relation" (List.map fst b.inputs) (Graph.inputs b.gs)
  in
  let* () =
    check_coverage "output relation" (List.map fst b.outputs) (Graph.outputs b.gs)
  in
  let node_outputs = List.map Node.output (Graph.nodes b.gs) in
  let gs_tensor = Serial.tensor_by_name b.gs in
  let covered_ops =
    List.filter_map
      (fun (e : Bundle.operator_entry) -> gs_tensor e.op_output)
      b.operators
  in
  let* () = check_coverage "operator entries" covered_ops node_outputs in
  let* () =
    List.fold_left
      (fun acc (e : Bundle.operator_entry) ->
        let* () = acc in
        if e.op_mappings = [] then
          err E.Incomplete "operator entry %s carries no mapping"
            (name e.op_output)
        else Ok ())
      (Ok ()) b.operators
  in
  let constraints = Graph.constraints b.gd in
  let* () =
    List.fold_left
      (fun acc (t, es) ->
        let* () = acc in
        check_exprs
          ~what:(Fmt.str "input relation for %s" (Tensor.name t))
          ~target:t ~in_scope:(Graph.is_input b.gd)
          ~scope_name:"distributed inputs"
          ~constraints es)
      (Ok ()) b.inputs
  in
  let* () =
    List.fold_left
      (fun acc (t, es) ->
        let* () = acc in
        check_exprs
          ~what:(Fmt.str "output relation for %s" (Tensor.name t))
          ~target:t ~in_scope:(Graph.is_output b.gd)
          ~scope_name:"distributed outputs"
          ~constraints es)
      (Ok ()) b.outputs
  in
  List.fold_left
    (fun acc (e : Bundle.operator_entry) ->
      let* () = acc in
      match gs_tensor e.op_output with
      | None ->
          err E.Leaf_out_of_scope
            "operator entry %s is not a sequential tensor" (name e.op_output)
      | Some t ->
          check_exprs
            ~what:(Fmt.str "operator entry %s" e.op_output)
            ~target:t ~in_scope:(Graph.mem_tensor b.gd)
            ~scope_name:"distributed tensors"
            ~constraints e.op_mappings)
    (Ok ()) b.operators

(* ---------------- concrete replay (CERT010) ----------------------- *)

(* Union-find over distributed inputs forced equal because the input
   relation maps one sequential input to several bare leaves. *)
let replication_groups bindings =
  let parent : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let rec find i =
    match Hashtbl.find_opt parent i with
    | Some p when p <> i ->
        let r = find p in
        Hashtbl.replace parent i r;
        r
    | _ -> i
  in
  let union a b =
    Hashtbl.replace parent (max (find a) (find b)) (min (find a) (find b))
  in
  List.iter
    (fun (_, exprs) ->
      let leaf_only =
        List.filter_map
          (function Expr.Leaf t -> Some (Tensor.id t :> int) | _ -> None)
          exprs
      in
      match leaf_only with
      | first :: rest -> List.iter (union first) rest
      | [] -> ())
    bindings;
  find

let tol = 1e-3
let seed = 42
let max_mismatches = 8

let replay_exn ~env ~gs ~gd ~inputs ~outputs =
  let st = Random.State.make [| seed |] in
  let canon = replication_groups inputs in
  let by_group : (int, Tensor.t * Ndarray.t) Hashtbl.t = Hashtbl.create 16 in
  let* gd_inputs =
    List.fold_left
      (fun acc t ->
        let* acc = acc in
        let key = canon (Tensor.id t :> int) in
        let dims = Shape.concrete (Interp.lookup env) (Tensor.shape t) in
        match Hashtbl.find_opt by_group key with
        | Some (rep, v) ->
            (* [t] and [rep] are forced equal by replication in the
               input relation (possibly transitively, through a chain
               of shared bare leaves); reusing [rep]'s value is only
               sound if they agree on dtype and concrete shape —
               otherwise the relation equates incompatible tensors and
               must be rejected precisely, not via a downstream
               interpreter crash. *)
            if not (Dtype.equal (Tensor.dtype t) (Tensor.dtype rep)) then
              err E.Shape_mismatch
                "input relation replicates %s and %s, but their dtypes \
                 differ (%a vs %a)"
                (name (Tensor.name rep)) (name (Tensor.name t)) Dtype.pp
                (Tensor.dtype rep)
                Dtype.pp (Tensor.dtype t)
            else if
              dims <> Shape.concrete (Interp.lookup env) (Tensor.shape rep)
            then
              err E.Shape_mismatch
                "input relation replicates %s and %s, but their shapes \
                 differ (%s vs %s)"
                (name (Tensor.name rep)) (name (Tensor.name t))
                (E.excerpt Shape.pp (Tensor.shape rep))
                (E.excerpt Shape.pp (Tensor.shape t))
            else Ok ((t, v) :: acc)
        | None ->
            let v =
              if Dtype.is_integer (Tensor.dtype t) then
                Ndarray.random_ints st ~hi:8 dims
              else Ndarray.random st dims
            in
            Hashtbl.replace by_group key (t, v);
            Ok ((t, v) :: acc))
      (Ok []) (Graph.inputs gd)
  in
  let gd_inputs = List.rev gd_inputs in
  (* A lookup into [bindings] by tensor, answering the first binding of
     each, as a scan would. *)
  let table bindings =
    let h = Hashtbl.create (List.length bindings) in
    List.iter
      (fun (t, x) ->
        let id = (Tensor.id t :> int) in
        if not (Hashtbl.mem h id) then Hashtbl.add h id x)
      bindings;
    fun t -> Hashtbl.find_opt h (Tensor.id t :> int)
  in
  let drawn = table gd_inputs in
  let lookup_gd_input t =
    match drawn t with
    | Some v -> v
    | None -> invalid_arg (Fmt.str "%a is not a gd input" Tensor.pp t)
  in
  let input_mappings = table inputs in
  let* gs_inputs =
    List.fold_left
      (fun acc t ->
        let* acc = acc in
        match input_mappings t with
        | None | Some [] ->
            err E.Incomplete "input relation misses gs input %s"
              (name (Tensor.name t))
        | Some (expr :: rest) ->
            let value = Interp.eval_expr env lookup_gd_input expr in
            let consistent =
              List.for_all
                (fun e ->
                  Ndarray.approx_equal ~tol value
                    (Interp.eval_expr env lookup_gd_input e))
                rest
            in
            if not consistent then
              err E.Replay_mismatch
                "input relation mappings for %s are inconsistent"
                (name (Tensor.name t))
            else Ok ((t, value) :: acc))
      (Ok []) (Graph.inputs gs)
  in
  let vs = Interp.run env gs ~inputs:gs_inputs in
  let vd = Interp.run env gd ~inputs:gd_inputs in
  let lookup_gd t =
    match Tensor.Map.find_opt t vd with
    | Some v -> v
    | None -> invalid_arg (Fmt.str "%a not computed in gd" Tensor.pp t)
  in
  let output_mappings = table outputs in
  (* Accumulate every failing output expression (bounded), rather than
     stopping at the first. *)
  let mismatches = ref [] in
  let replayed = ref 0 in
  let* () =
    List.fold_left
      (fun acc output ->
        let* () = acc in
        match output_mappings output with
        | None | Some [] ->
            err E.Incomplete "output relation misses %s"
              (name (Tensor.name output))
        | Some exprs ->
            let expected = Tensor.Map.find output vs in
            List.iter
              (fun expr ->
                if List.length !mismatches < max_mismatches then begin
                  incr replayed;
                  let got = Interp.eval_expr env lookup_gd expr in
                  if not (Ndarray.approx_equal ~tol expected got) then
                    mismatches :=
                      Fmt.str
                        "output %s: replaying %s differs from the sequential \
                         value by %g"
                        (name (Tensor.name output))
                        (E.excerpt Expr.pp expr)
                        (Ndarray.max_abs_diff expected got)
                      :: !mismatches
                end)
              exprs;
            Ok ())
      (Ok ()) (Graph.outputs gs)
  in
  match List.rev !mismatches with
  | [] -> Ok !replayed
  | ms ->
      err E.Replay_mismatch "%d mismatching output expression(s): %s"
        (List.length ms) (String.concat "; " ms)

let replay ~env ~gs ~gd ~inputs ~outputs =
  try replay_exn ~env ~gs ~gd ~inputs ~outputs
  with exn -> err E.Replay_mismatch "replay raised: %s" (Printexc.to_string exn)

let check (b : Bundle.t) =
  let* () = check_static b in
  let* exprs_replayed =
    replay ~env:(Interp.env_of_list b.env) ~gs:b.gs ~gd:b.gd ~inputs:b.inputs
      ~outputs:b.outputs
  in
  Ok
    {
      id = Bundle.id b;
      operators = List.length b.operators;
      outputs_checked = List.length (Graph.outputs b.gs);
      exprs_replayed;
      tol;
      seed;
    }

let check_string text =
  let* b = Bundle.of_string text in
  check b
