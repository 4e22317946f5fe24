open Entangle_symbolic

type t = {
  name : string;
  inputs : Tensor.t list;
  outputs : Tensor.t list;
  nodes : Node.t list;
  constraints : Constraint_store.t;
  producers : Node.t Tensor.Map.t;
  input_set : Tensor.Set.t;
  output_set : Tensor.Set.t;
  by_position : Node.t array;  (* [nodes], indexed by graph position *)
  consumers : int list Tensor.Map.t;
      (* positions, ascending; a node using a tensor twice appears once *)
  sources : int list;  (* positions of the nodes without inputs *)
}

(* Every derived field comes from the lists, so each constructor goes
   through here and the indexes cannot fall out of step with them. *)
let make ~name ~constraints ~inputs ~outputs nodes =
  let by_position = Array.of_list nodes in
  let consumers = ref Tensor.Map.empty and sources = ref [] in
  for i = Array.length by_position - 1 downto 0 do
    let n = by_position.(i) in
    if Node.inputs n = [] then sources := i :: !sources;
    List.iter
      (fun t ->
        let prev =
          Option.value (Tensor.Map.find_opt t !consumers) ~default:[]
        in
        consumers := Tensor.Map.add t (i :: prev) !consumers)
      (Node.distinct_inputs n)
  done;
  {
    name;
    inputs;
    outputs;
    nodes;
    constraints;
    producers =
      List.fold_left
        (fun map n -> Tensor.Map.add (Node.output n) n map)
        Tensor.Map.empty nodes;
    input_set = Tensor.Set.of_list inputs;
    output_set = Tensor.Set.of_list outputs;
    by_position;
    consumers = !consumers;
    sources = !sources;
  }

let name g = g.name
let inputs g = g.inputs
let outputs g = g.outputs
let nodes g = g.nodes
let constraints g = g.constraints
let num_nodes g = Array.length g.by_position

let tensors g =
  let add set t = Tensor.Set.add t set in
  let set = List.fold_left add Tensor.Set.empty g.inputs in
  let set =
    List.fold_left (fun s n -> add s (Node.output n)) set g.nodes
  in
  Tensor.Set.elements set

let producer g t = Tensor.Map.find_opt t g.producers

let consumer_positions g t =
  Option.value (Tensor.Map.find_opt t g.consumers) ~default:[]

let consumers g t = List.map (Array.get g.by_position) (consumer_positions g t)
let is_input g t = Tensor.Set.mem t g.input_set
let is_output g t = Tensor.Set.mem t g.output_set
let mem_tensor g t = is_input g t || Tensor.Map.mem t g.producers

let anchors g mappings =
  let rec add acc = function
    | Expr.Leaf t -> if mem_tensor g t then Tensor.Set.add t acc else acc
    | Expr.App (_, args) -> List.fold_left add acc args
  in
  List.fold_left (List.fold_left add) Tensor.Set.empty mappings

(* Listing 3's fixpoint as a worklist: each node counts down its
   distinct inputs not yet reached, and a node whose count reaches zero
   joins the next wave. So wave k+1 holds exactly the nodes whose last
   input wave k reached, which is what a loop rescanning every node per
   wave would load next, and each wave is sorted back into graph
   order. *)
let cone g ~anchors =
  let reached = Hashtbl.create 64 and missing = Hashtbl.create 64 in
  let reach ready t =
    if Hashtbl.mem reached (Tensor.id t) then ready
    else begin
      Hashtbl.replace reached (Tensor.id t) ();
      List.fold_left
        (fun ready i ->
          let k =
            match Hashtbl.find_opt missing i with
            | Some k -> k - 1
            | None ->
                List.length (Node.distinct_inputs g.by_position.(i)) - 1
          in
          Hashtbl.replace missing i k;
          if k = 0 then i :: ready else ready)
        ready (consumer_positions g t)
    end
  in
  let rec waves = function
    | [] -> []
    | ready ->
        let wave =
          List.map (Array.get g.by_position) (List.sort Int.compare ready)
        in
        let next =
          List.fold_left (fun ready n -> reach ready (Node.output n)) [] wave
        in
        wave :: waves next
  in
  waves (Tensor.Set.fold (fun t ready -> reach ready t) anchors g.sources)

let append_expr g ?(name = "%expect") expr =
  let ( let* ) = Result.bind in
  let next_node_id = ref (List.length g.nodes) in
  let fresh = ref 0 in
  (* The nodes appended so far, newest first. *)
  let rec build added = function
    | Expr.Leaf t ->
        if mem_tensor g t then Ok (added, t)
        else Error (Fmt.str "append_expr: tensor %a not in graph" Tensor.pp t)
    | Expr.App (op, args) ->
        let* added, inputs =
          List.fold_left
            (fun acc e ->
              let* added, ins = acc in
              let* added, t = build added e in
              Ok (added, ins @ [ t ]))
            (Ok (added, [])) args
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
        Ok (node :: added, output)
  in
  let* added, t = build [] expr in
  Ok
    ( make ~name:g.name ~constraints:g.constraints ~inputs:g.inputs
        ~outputs:(g.outputs @ [ t ])
        (g.nodes @ List.rev added),
      t )

let with_outputs g outputs =
  let bad = List.filter (fun t -> not (mem_tensor g t)) outputs in
  match bad with
  | [] -> Ok { g with outputs; output_set = Tensor.Set.of_list outputs }
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
    b.b_known <- Tensor.Set.add output b.b_known;
    output

  let output b t =
    if not (Tensor.Set.mem t b.b_known) then
      invalid_arg (Fmt.str "Graph.Builder.output: unknown tensor %a" Tensor.pp t);
    b.b_outputs <- t :: b.b_outputs

  let finish b =
    make ~name:b.b_name ~constraints:b.b_constraints
      ~inputs:(List.rev b.b_inputs) ~outputs:(List.rev b.b_outputs)
      (List.rev b.b_nodes)
end

let unsafe_make ?(constraints = Constraint_store.empty) ~name ~inputs ~outputs
    nodes =
  make ~name ~constraints ~inputs ~outputs nodes
