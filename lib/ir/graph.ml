open Entangle_symbolic

type t = {
  name : string;
  inputs : Tensor.t list;
  outputs : Tensor.t list;
  nodes : Node.t list;
  constraints : Constraint_store.t;
  producers : Node.t Tensor.Map.t;
  consumers : Node.t list Tensor.Map.t;  (* graph order, one entry per use site *)
}

(* The consumers index, rebuilt whenever the node list changes. A node
   using the same tensor twice appears once. *)
let consumers_of_nodes nodes =
  let add_use map t n =
    let prev = Option.value (Tensor.Map.find_opt t map) ~default:[] in
    Tensor.Map.add t (n :: prev) map
  in
  let map =
    List.fold_left
      (fun map n ->
        List.fold_left
          (fun map t -> add_use map t n)
          map (Node.distinct_inputs n))
      Tensor.Map.empty nodes
  in
  Tensor.Map.map List.rev map

let name g = g.name
let inputs g = g.inputs
let outputs g = g.outputs
let nodes g = g.nodes
let constraints g = g.constraints
let num_nodes g = List.length g.nodes

let tensors g =
  let add set t = Tensor.Set.add t set in
  let set = List.fold_left add Tensor.Set.empty g.inputs in
  let set =
    List.fold_left (fun s n -> add s (Node.output n)) set g.nodes
  in
  Tensor.Set.elements set

let producer g t = Tensor.Map.find_opt t g.producers

let consumers g t =
  Option.value (Tensor.Map.find_opt t g.consumers) ~default:[]

let is_input g t = List.exists (Tensor.equal t) g.inputs
let is_output g t = List.exists (Tensor.equal t) g.outputs

let mem_tensor g t =
  is_input g t || Tensor.Map.mem t g.producers

let append_expr g ?(name = "%expect") expr =
  let ( let* ) = Result.bind in
  let next_node_id = ref (List.length g.nodes) in
  let fresh = ref 0 in
  let rec build g = function
    | Expr.Leaf t ->
        if mem_tensor g t then Ok (g, t)
        else Error (Fmt.str "append_expr: tensor %a not in graph" Tensor.pp t)
    | Expr.App (op, args) ->
        let* g, inputs =
          List.fold_left
            (fun acc e ->
              let* g, ins = acc in
              let* g, t = build g e in
              Ok (g, ins @ [ t ]))
            (Ok (g, [])) args
        in
        let shapes = List.map Tensor.shape inputs in
        let dtypes = List.map Tensor.dtype inputs in
        let* shape = Op.infer_shape g.constraints op shapes in
        let* dtype = Op.infer_dtype op dtypes in
        incr fresh;
        let output =
          Tensor.create ~dtype ~name:(Fmt.str "%s_%d" name !fresh) shape
        in
        let node = { Node.id = !next_node_id; op; inputs; output } in
        incr next_node_id;
        Ok
          ( {
              g with
              nodes = g.nodes @ [ node ];
              producers = Tensor.Map.add output node g.producers;
            },
            output )
  in
  let* g, t = build g expr in
  Ok
    ( { g with outputs = g.outputs @ [ t ];
        consumers = consumers_of_nodes g.nodes },
      t )

let with_outputs g outputs =
  let bad = List.filter (fun t -> not (mem_tensor g t)) outputs in
  match bad with
  | [] -> Ok { g with outputs }
  | t :: _ -> Error (Fmt.str "with_outputs: tensor %a not in graph" Tensor.pp t)

let pp ppf g =
  Fmt.pf ppf "@[<v>graph %s@,inputs: %a@,%a@,outputs: %a@]" g.name
    (Fmt.list ~sep:(Fmt.any ", ") Tensor.pp)
    g.inputs
    (Fmt.list ~sep:Fmt.cut Node.pp)
    g.nodes
    (Fmt.list ~sep:(Fmt.any ", ") Tensor.pp_name)
    g.outputs

module Builder = struct


  type t = {
    b_name : string;
    b_constraints : Constraint_store.t;
    mutable b_inputs : Tensor.t list;  (* reverse order *)
    mutable b_outputs : Tensor.t list;  (* reverse order *)
    mutable b_nodes : Node.t list;  (* reverse order *)
    mutable b_producers : Node.t Tensor.Map.t;
    mutable b_known : Tensor.Set.t;
    mutable b_next_id : int;
    mutable b_fresh : int;
  }

  let create ?(constraints = Constraint_store.empty) name =
    {
      b_name = name;
      b_constraints = constraints;
      b_inputs = [];
      b_outputs = [];
      b_nodes = [];
      b_producers = Tensor.Map.empty;
      b_known = Tensor.Set.empty;
      b_next_id = 0;
      b_fresh = 0;
    }

  let input b ?dtype name shape =
    let t = Tensor.create ?dtype ~name shape in
    b.b_inputs <- t :: b.b_inputs;
    b.b_known <- Tensor.Set.add t b.b_known;
    t

  let add b ?name op inputs =
    List.iter
      (fun t ->
        if not (Tensor.Set.mem t b.b_known) then
          invalid_arg
            (Fmt.str "Graph.Builder.add(%s): tensor %a is not in graph %s"
               (Op.name op) Tensor.pp t b.b_name))
      inputs;
    let shapes = List.map Tensor.shape inputs in
    let dtypes = List.map Tensor.dtype inputs in
    let shape =
      match Op.infer_shape b.b_constraints op shapes with
      | Ok s -> s
      | Error e -> invalid_arg (Fmt.str "Graph.Builder.add: %s" e)
    in
    let dtype =
      match Op.infer_dtype op dtypes with
      | Ok d -> d
      | Error e -> invalid_arg (Fmt.str "Graph.Builder.add: %s" e)
    in
    let name =
      match name with
      | Some n -> n
      | None ->
          b.b_fresh <- b.b_fresh + 1;
          Fmt.str "%%%s_%d" (Op.name op) b.b_fresh
    in
    let output = Tensor.create ~dtype ~name shape in
    let node = { Node.id = b.b_next_id; op; inputs; output } in
    b.b_next_id <- b.b_next_id + 1;
    b.b_nodes <- node :: b.b_nodes;
    b.b_producers <- Tensor.Map.add output node b.b_producers;
    b.b_known <- Tensor.Set.add output b.b_known;
    output

  let output b t =
    if not (Tensor.Set.mem t b.b_known) then
      invalid_arg (Fmt.str "Graph.Builder.output: unknown tensor %a" Tensor.pp t);
    b.b_outputs <- t :: b.b_outputs

  let finish b =
    let nodes = List.rev b.b_nodes in
    {
      name = b.b_name;
      inputs = List.rev b.b_inputs;
      outputs = List.rev b.b_outputs;
      nodes;
      constraints = b.b_constraints;
      producers = b.b_producers;
      consumers = consumers_of_nodes nodes;
    }
end

let unsafe_make ?(constraints = Constraint_store.empty) ~name ~inputs ~outputs
    nodes =
  let producers =
    List.fold_left
      (fun map n -> Tensor.Map.add (Node.output n) n map)
      Tensor.Map.empty nodes
  in
  {
    name;
    inputs;
    outputs;
    nodes;
    constraints;
    producers;
    consumers = consumers_of_nodes nodes;
  }
