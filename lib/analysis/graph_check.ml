open Entangle_ir

let tid t = (Tensor.id t :> int)

let check_named ?name g =
  let gname = match name with Some n -> n | None -> Graph.name g in
  let loc ?node ?tensor () = Diagnostic.Graph { graph = gname; node; tensor } in
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  let nodes = Graph.nodes g in
  let constraints = Graph.constraints g in

  (* --- SSA discipline: unique node ids, unique producers ------------- *)
  let seen_ids = Hashtbl.create 64 in
  List.iter
    (fun n ->
      let id = Node.id n in
      if Hashtbl.mem seen_ids id then
        emit
          (Diagnostic.error ~code:"GRAPH002" (loc ~node:id ())
             "duplicate node id %d" id)
      else Hashtbl.replace seen_ids id ())
    nodes;
  let first_producer = Hashtbl.create 64 in
  List.iter
    (fun n ->
      let out = Node.output n in
      (match Hashtbl.find_opt first_producer (tid out) with
      | Some other ->
          emit
            (Diagnostic.error ~code:"GRAPH002"
               (loc ~node:(Node.id n) ~tensor:(Tensor.name out) ())
               "tensor %a is produced twice (nodes %d and %d)" Tensor.pp_name
               out (Node.id other) (Node.id n))
      | None -> Hashtbl.replace first_producer (tid out) n);
      if Graph.is_input g out then
        emit
          (Diagnostic.error ~code:"GRAPH002"
             (loc ~node:(Node.id n) ~tensor:(Tensor.name out) ())
             "node %d produces graph input %a" (Node.id n) Tensor.pp_name out))
    nodes;

  (* --- def-before-use ------------------------------------------------ *)
  let available = Hashtbl.create 64 in
  List.iter (fun t -> Hashtbl.replace available (tid t) ()) (Graph.inputs g);
  List.iter
    (fun n ->
      List.iter
        (fun input ->
          if not (Hashtbl.mem available (tid input)) then
            if Hashtbl.mem first_producer (tid input) then
              emit
                (Diagnostic.error ~code:"GRAPH001"
                   (loc ~node:(Node.id n) ~tensor:(Tensor.name input) ())
                   "node %d uses %a before its definition (producer node %d \
                    comes later)"
                   (Node.id n) Tensor.pp_name input
                   (Node.id (Hashtbl.find first_producer (tid input))))
            else
              emit
                (Diagnostic.error ~code:"GRAPH001"
                   (loc ~node:(Node.id n) ~tensor:(Tensor.name input) ())
                   "node %d references dangling tensor %a (no producer, not a \
                    graph input)"
                   (Node.id n) Tensor.pp_name input))
        (Node.inputs n);
      Hashtbl.replace available (tid (Node.output n)) ())
    nodes;

  (* --- producer index consistency ------------------------------------ *)
  List.iter
    (fun n ->
      match Graph.producer g (Node.output n) with
      | Some n' when Node.id n' = Node.id n -> ()
      | Some n' ->
          emit
            (Diagnostic.error ~code:"GRAPH003"
               (loc ~node:(Node.id n) ~tensor:(Tensor.name (Node.output n)) ())
               "producer index maps %a to node %d, but node %d produces it"
               Tensor.pp_name (Node.output n) (Node.id n') (Node.id n))
      | None ->
          emit
            (Diagnostic.error ~code:"GRAPH003"
               (loc ~node:(Node.id n) ~tensor:(Tensor.name (Node.output n)) ())
               "producer index has no entry for %a (produced by node %d)"
               Tensor.pp_name (Node.output n) (Node.id n)))
    nodes;

  (* --- cycles through producer references ----------------------------- *)
  let color = Hashtbl.create 64 in
  (* 1 = on stack, 2 = done *)
  let rec visit n =
    match Hashtbl.find_opt color (Node.id n) with
    | Some 2 -> ()
    | Some _ ->
        emit
          (Diagnostic.error ~code:"GRAPH004" (loc ~node:(Node.id n) ())
             "cycle through node %d (%s)" (Node.id n) (Op.name (Node.op n)))
    | None ->
        Hashtbl.replace color (Node.id n) 1;
        List.iter
          (fun input ->
            match Hashtbl.find_opt first_producer (tid input) with
            | Some p -> visit p
            | None -> ())
          (Node.inputs n);
        Hashtbl.replace color (Node.id n) 2
  in
  List.iter visit nodes;

  (* --- dead nodes (via the precomputed consumers index) --------------- *)
  let live = Hashtbl.create 64 in
  List.iter
    (fun n ->
      let out = Node.output n in
      let used_later =
        Graph.is_output g out
        || List.exists
             (fun c -> Hashtbl.mem live (Node.id c))
             (Graph.consumers g out)
      in
      if used_later then Hashtbl.replace live (Node.id n) ()
      else
        emit
          (Diagnostic.warning ~code:"GRAPH005"
             (loc ~node:(Node.id n) ~tensor:(Tensor.name out) ())
             "dead node: %a is unreachable from the graph outputs"
             Tensor.pp_name out))
    (List.rev nodes);

  (* --- unused inputs --------------------------------------------------- *)
  List.iter
    (fun t ->
      if Graph.consumers g t = [] && not (Graph.is_output g t) then
        emit
          (Diagnostic.warning ~code:"GRAPH006" (loc ~tensor:(Tensor.name t) ())
             "graph input %a is never used" Tensor.pp_name t))
    (Graph.inputs g);

  (* --- shape / dtype re-inference -------------------------------------- *)
  List.iter
    (fun n ->
      let op = Node.op n and out = Node.output n in
      let node = Node.id n in
      if not (Op.arity_ok op (List.length (Node.inputs n))) then
        emit
          (Diagnostic.error ~code:"GRAPH010" (loc ~node ())
             "operator %s applied to %d input(s)" (Op.name op)
             (List.length (Node.inputs n)))
      else begin
        (match
           Op.infer_shape constraints op (List.map Tensor.shape (Node.inputs n))
         with
        | Error e ->
            emit
              (Diagnostic.error ~code:"GRAPH011" (loc ~node ())
                 "shape inference failed: %s" e)
        | Ok shape ->
            if not (Shape.equal constraints shape (Tensor.shape out)) then
              emit
                (Diagnostic.error ~code:"GRAPH007"
                   (loc ~node ~tensor:(Tensor.name out) ())
                   "stale shape: stored %a, re-inference gives %a" Shape.pp
                   (Tensor.shape out) Shape.pp shape));
        match Op.infer_dtype op (List.map Tensor.dtype (Node.inputs n)) with
        | Error e ->
            emit
              (Diagnostic.error ~code:"GRAPH011" (loc ~node ())
                 "dtype inference failed: %s" e)
        | Ok dtype ->
            if not (Dtype.equal dtype (Tensor.dtype out)) then
              emit
                (Diagnostic.error ~code:"GRAPH008"
                   (loc ~node ~tensor:(Tensor.name out) ())
                   "stale dtype: stored %s, re-inference gives %s"
                   (Dtype.to_string (Tensor.dtype out))
                   (Dtype.to_string dtype))
      end)
    nodes;

  (* --- outputs ---------------------------------------------------------- *)
  List.iter
    (fun t ->
      if not (Graph.mem_tensor g t) then
        emit
          (Diagnostic.error ~code:"GRAPH009" (loc ~tensor:(Tensor.name t) ())
             "graph output %a is neither an input nor produced by any node"
             Tensor.pp_name t))
    (Graph.outputs g);

  Diagnostic.sort (List.rev !diags)

let check g = check_named g
