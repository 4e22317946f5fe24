open Entangle_symbolic

let ( let* ) = Result.bind
let err fmt = Fmt.kstr (fun s -> Error s) fmt

(* [f] over [xs] in order, stopping at the first error: linear, where a
   fold appending each result would copy the list per element. *)
let map_result f xs =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest -> (
        match f x with Ok y -> go (y :: acc) rest | Error _ as e -> e)
  in
  go [] xs

(* --- symbolic dimensions ------------------------------------------- *)

let symdim_to_sexp d =
  match Symdim.to_int d with
  | Some n -> Sexp.atom (string_of_int n)
  | None ->
      let terms =
        List.map
          (fun s ->
            let c = Symdim.coeff d s in
            if c = 1 then Sexp.atom s
            else Sexp.list [ Sexp.atom "*"; Sexp.atom (string_of_int c); Sexp.atom s ])
          (Symdim.symbols d)
      in
      let const = Symdim.const_part d in
      let parts =
        terms @ if const = 0 then [] else [ Sexp.atom (string_of_int const) ]
      in
      (match parts with
      | [ one ] -> one
      | many -> Sexp.list (Sexp.atom "+" :: many))

let rec symdim_of_sexp = function
  | Sexp.Atom a -> (
      match int_of_string_opt a with
      | Some n -> Ok (Symdim.of_int n)
      | None -> Ok (Symdim.sym a))
  | Sexp.List (Sexp.Atom "+" :: parts) ->
      List.fold_left
        (fun acc p ->
          let* acc = acc in
          let* d = symdim_of_sexp p in
          Ok (Symdim.add acc d))
        (Ok Symdim.zero) parts
  | Sexp.List [ Sexp.Atom "*"; Sexp.Atom k; Sexp.Atom s ] -> (
      match int_of_string_opt k with
      | Some k -> Ok (Symdim.mul_int k (Symdim.sym s))
      | None -> err "malformed coefficient %s" (Sexp.excerpt (Sexp.Atom k)))
  | s -> err "malformed dimension %s" (Sexp.excerpt s)

let shape_to_sexp shape =
  Sexp.list (Sexp.atom "shape" :: List.map symdim_to_sexp shape)

let shape_of_sexp = function
  | Sexp.List (Sexp.Atom "shape" :: dims) -> map_result symdim_of_sexp dims
  | s -> err "malformed shape %s" (Sexp.excerpt s)

(* --- dtype ----------------------------------------------------------- *)

let dtype_of_string = function
  | "f32" -> Ok Dtype.F32
  | "f16" -> Ok Dtype.F16
  | "bf16" -> Ok Dtype.BF16
  | "i64" -> Ok Dtype.I64
  | "bool" -> Ok Dtype.Bool
  | s -> err "unknown dtype %s" (Sexp.excerpt (Sexp.Atom s))

(* --- operators -------------------------------------------------------- *)

let rat_to_string r =
  if Rat.den r = 1 then string_of_int (Rat.num r)
  else Printf.sprintf "%d/%d" (Rat.num r) (Rat.den r)

let rat_of_string s =
  match String.index_opt s '/' with
  | None -> (
      match int_of_string_opt s with
      | Some n -> Ok (Rat.of_int n)
      | None -> err "malformed rational %s" (Sexp.excerpt (Sexp.Atom s)))
  | Some i -> (
      let num = String.sub s 0 i in
      let den = String.sub s (i + 1) (String.length s - i - 1) in
      match (int_of_string_opt num, int_of_string_opt den) with
      | Some n, Some d when d <> 0 -> Ok (Rat.make n d)
      | _ -> err "malformed rational %s" (Sexp.excerpt (Sexp.Atom s)))

let simple_ops : (string * Op.t) list =
  [
    ("add", Op.Add); ("sub", Op.Sub); ("mul", Op.Mul); ("div", Op.Div);
    ("maximum", Op.Maximum); ("pow", Op.Pow); ("neg", Op.Neg);
    ("exp", Op.Exp); ("log", Op.Log); ("sqrt", Op.Sqrt); ("rsqrt", Op.Rsqrt);
    ("relu", Op.Relu); ("gelu", Op.Gelu); ("silu", Op.Silu);
    ("tanh", Op.Tanh); ("sigmoid", Op.Sigmoid); ("square", Op.Square);
    ("matmul", Op.Matmul); ("identity", Op.Identity); ("sum", Op.Sum_n);
    ("embedding", Op.Embedding); ("rope", Op.Rope);
    ("mse_loss", Op.Mse_loss); ("cross_entropy", Op.Cross_entropy);
    ("all_reduce", Op.All_reduce); ("swiglu_fused", Op.Swiglu_fused);
    ("hlo_dot", Op.Hlo_dot);
  ]

let op_to_sexp (op : Op.t) =
  let a = Sexp.atom and l = Sexp.list in
  let i n = a (string_of_int n) in
  let b v = a (string_of_bool v) in
  match op with
  | Op.Scale r -> l [ a "scale"; a (rat_to_string r) ]
  | Op.Concat { dim } -> l [ a "concat"; i dim ]
  | Op.Hlo_concatenate { dim } -> l [ a "hlo_concatenate"; i dim ]
  | Op.Slice { dim; start; stop } ->
      l [ a "slice"; i dim; symdim_to_sexp start; symdim_to_sexp stop ]
  | Op.Hlo_slice { dim; start; stop } ->
      l [ a "hlo_slice"; i dim; symdim_to_sexp start; symdim_to_sexp stop ]
  | Op.Transpose { dim0; dim1 } -> l [ a "transpose"; i dim0; i dim1 ]
  | Op.Reshape { shape } -> l [ a "reshape"; shape_to_sexp shape ]
  | Op.Pad { dim; before; after } ->
      l [ a "pad"; i dim; symdim_to_sexp before; symdim_to_sexp after ]
  | Op.Reduce_sum { dim; keepdim } -> l [ a "reduce_sum"; i dim; b keepdim ]
  | Op.Reduce_mean { dim; keepdim } -> l [ a "reduce_mean"; i dim; b keepdim ]
  | Op.Reduce_max { dim; keepdim } -> l [ a "reduce_max"; i dim; b keepdim ]
  | Op.Softmax { dim } -> l [ a "softmax"; i dim ]
  | Op.Layernorm { eps } -> l [ a "layernorm"; a (string_of_float eps) ]
  | Op.Rmsnorm { eps } -> l [ a "rmsnorm"; a (string_of_float eps) ]
  | Op.Reduce_scatter { dim; index; count } ->
      l [ a "reduce_scatter"; i dim; i index; i count ]
  | Op.All_gather { dim } -> l [ a "all_gather"; i dim ]
  | other -> l [ a (Op.name other) ]

let int_of_atom what s =
  let n =
    match s with Sexp.Atom a -> int_of_string_opt a | Sexp.List _ -> None
  in
  match n with
  | Some n -> Ok n
  | None -> err "%s: expected integer, got %s" what (Sexp.excerpt s)

let bool_of_atom what = function
  | Sexp.Atom "true" -> Ok true
  | Sexp.Atom "false" -> Ok false
  | s -> err "%s: expected bool, got %s" what (Sexp.excerpt s)

let float_of_atom what s =
  let f =
    match s with Sexp.Atom a -> float_of_string_opt a | Sexp.List _ -> None
  in
  match f with
  | Some f -> Ok f
  | None -> err "%s: expected float, got %s" what (Sexp.excerpt s)

let op_of_sexp = function
  | Sexp.List (Sexp.Atom name :: args) -> (
      match (name, args) with
      | _, [] -> (
          match List.assoc_opt name simple_ops with
          | Some op -> Ok op
          | None -> err "unknown operator %s" (Sexp.excerpt (Sexp.Atom name)))
      | "scale", [ Sexp.Atom r ] ->
          let* r = rat_of_string r in
          Ok (Op.Scale r)
      | "concat", [ d ] ->
          let* dim = int_of_atom "concat" d in
          Ok (Op.Concat { dim })
      | "hlo_concatenate", [ d ] ->
          let* dim = int_of_atom "hlo_concatenate" d in
          Ok (Op.Hlo_concatenate { dim })
      | "slice", [ d; s0; s1 ] ->
          let* dim = int_of_atom "slice" d in
          let* start = symdim_of_sexp s0 in
          let* stop = symdim_of_sexp s1 in
          Ok (Op.Slice { dim; start; stop })
      | "hlo_slice", [ d; s0; s1 ] ->
          let* dim = int_of_atom "hlo_slice" d in
          let* start = symdim_of_sexp s0 in
          let* stop = symdim_of_sexp s1 in
          Ok (Op.Hlo_slice { dim; start; stop })
      | "transpose", [ d0; d1 ] ->
          let* dim0 = int_of_atom "transpose" d0 in
          let* dim1 = int_of_atom "transpose" d1 in
          Ok (Op.Transpose { dim0; dim1 })
      | "reshape", [ sh ] ->
          let* shape = shape_of_sexp sh in
          Ok (Op.Reshape { shape })
      | "pad", [ d; b0; a0 ] ->
          let* dim = int_of_atom "pad" d in
          let* before = symdim_of_sexp b0 in
          let* after = symdim_of_sexp a0 in
          Ok (Op.Pad { dim; before; after })
      | "reduce_sum", [ d; k ] ->
          let* dim = int_of_atom "reduce_sum" d in
          let* keepdim = bool_of_atom "reduce_sum" k in
          Ok (Op.Reduce_sum { dim; keepdim })
      | "reduce_mean", [ d; k ] ->
          let* dim = int_of_atom "reduce_mean" d in
          let* keepdim = bool_of_atom "reduce_mean" k in
          Ok (Op.Reduce_mean { dim; keepdim })
      | "reduce_max", [ d; k ] ->
          let* dim = int_of_atom "reduce_max" d in
          let* keepdim = bool_of_atom "reduce_max" k in
          Ok (Op.Reduce_max { dim; keepdim })
      | "softmax", [ d ] ->
          let* dim = int_of_atom "softmax" d in
          Ok (Op.Softmax { dim })
      | "layernorm", [ e ] ->
          let* eps = float_of_atom "layernorm" e in
          Ok (Op.Layernorm { eps })
      | "rmsnorm", [ e ] ->
          let* eps = float_of_atom "rmsnorm" e in
          Ok (Op.Rmsnorm { eps })
      | "reduce_scatter", [ d; i0; c ] ->
          let* dim = int_of_atom "reduce_scatter" d in
          let* index = int_of_atom "reduce_scatter" i0 in
          let* count = int_of_atom "reduce_scatter" c in
          Ok (Op.Reduce_scatter { dim; index; count })
      | "all_gather", [ d ] ->
          let* dim = int_of_atom "all_gather" d in
          Ok (Op.All_gather { dim })
      | _ -> err "malformed operator (%s ...)" (Sexp.excerpt (Sexp.Atom name)))
  | s -> err "malformed operator %s" (Sexp.excerpt s)

(* --- graphs ------------------------------------------------------------ *)

let tensor_by_name g =
  let index = Hashtbl.create 64 in
  List.iter
    (fun t ->
      let name = Tensor.name t in
      if not (Hashtbl.mem index name) then Hashtbl.add index name t)
    (Graph.tensors g);
  Hashtbl.find_opt index

let check_unique_names g =
  let names = List.map Tensor.name (Graph.tensors g) in
  let sorted = List.sort compare names in
  let rec dup = function
    | a :: b :: _ when a = b -> Some a
    | _ :: rest -> dup rest
    | [] -> None
  in
  match dup sorted with
  | Some n ->
      err "graph %s: duplicate tensor name %s"
        (Sexp.excerpt (Sexp.Atom (Graph.name g)))
        (Sexp.excerpt (Sexp.Atom n))
  | None -> Ok ()

let constraints_to_sexp store =
  let constr = function
    | Constraint_store.Ge e -> Sexp.list [ Sexp.atom "ge"; symdim_to_sexp e ]
    | Constraint_store.Eq e -> Sexp.list [ Sexp.atom "eq"; symdim_to_sexp e ]
  in
  Sexp.list
    (Sexp.atom "constraints" :: List.map constr (Constraint_store.constraints store))

(* The store keeps the written order, so a decoded graph encodes back
   to the bytes it was read from. *)
let constraints_of_sexp = function
  | Sexp.List (Sexp.Atom "constraints" :: cs) ->
      let* rev =
        List.fold_left
          (fun acc c ->
            let* acc = acc in
            match c with
            | Sexp.List [ Sexp.Atom "ge"; e ] ->
                let* e = symdim_of_sexp e in
                Ok (Constraint_store.Ge e :: acc)
            | Sexp.List [ Sexp.Atom "eq"; e ] ->
                let* e = symdim_of_sexp e in
                Ok (Constraint_store.Eq (Symdim.sub e Symdim.zero) :: acc)
            | s -> err "malformed constraint %s" (Sexp.excerpt s))
          (Ok []) cs
      in
      Ok (Constraint_store.of_list (List.rev rev))
  | s -> err "malformed constraints %s" (Sexp.excerpt s)

let graph_to_sexp g =
  let a = Sexp.atom and l = Sexp.list in
  let input t =
    l
      [
        a (Tensor.name t);
        shape_to_sexp (Tensor.shape t);
        a (Dtype.to_string (Tensor.dtype t));
      ]
  in
  let node n =
    l
      [
        a (Tensor.name (Node.output n));
        op_to_sexp (Node.op n);
        l (List.map (fun t -> a (Tensor.name t)) (Node.inputs n));
      ]
  in
  l
    [
      a "graph";
      a (Graph.name g);
      constraints_to_sexp (Graph.constraints g);
      l (a "inputs" :: List.map input (Graph.inputs g));
      l (a "nodes" :: List.map node (Graph.nodes g));
      l (a "outputs" :: List.map (fun t -> a (Tensor.name t)) (Graph.outputs g));
    ]

let graph_to_string g =
  match check_unique_names g with
  | Ok () -> Sexp.to_string (graph_to_sexp g)
  | Error e -> invalid_arg (Fmt.str "Serial.graph_to_string: %s" e)

let graph_of_sexp sexp =
  match sexp with
  | Sexp.List
      [
        Sexp.Atom "graph"; Sexp.Atom name; constraints;
        Sexp.List (Sexp.Atom "inputs" :: inputs);
        Sexp.List (Sexp.Atom "nodes" :: nodes);
        Sexp.List (Sexp.Atom "outputs" :: outputs);
      ] ->
      let* constraints = constraints_of_sexp constraints in
      let b = Graph.Builder.create ~constraints name in
      let env : (string, Tensor.t) Hashtbl.t = Hashtbl.create 16 in
      let resolve what n =
        match Hashtbl.find_opt env n with
        | Some t -> Ok t
        | None -> err "%s: unknown tensor %s" what (Sexp.excerpt (Sexp.Atom n))
      in
      let* () =
        List.fold_left
          (fun acc input ->
            let* () = acc in
            match input with
            | Sexp.List [ Sexp.Atom iname; shape; Sexp.Atom dt ] ->
                if Hashtbl.mem env iname then
                  err "duplicate tensor %s" (Sexp.excerpt (Sexp.Atom iname))
                else
                  let* shape = shape_of_sexp shape in
                  let* dtype = dtype_of_string dt in
                  let t = Graph.Builder.input b ~dtype iname shape in
                  Hashtbl.replace env iname t;
                  Ok ()
            | s -> err "malformed input %s" (Sexp.excerpt s))
          (Ok ()) inputs
      in
      let* () =
        List.fold_left
          (fun acc node ->
            let* () = acc in
            match node with
            | Sexp.List [ Sexp.Atom out; op; Sexp.List ins ] ->
                if Hashtbl.mem env out then
                  err "duplicate tensor %s" (Sexp.excerpt (Sexp.Atom out))
                else
                  let* op = op_of_sexp op in
                  let* ins =
                    map_result
                      (function
                        | Sexp.Atom n -> resolve "node input" n
                        | s -> err "malformed input ref %s" (Sexp.excerpt s))
                      ins
                  in
                  (match Graph.Builder.add b ~name:out op ins with
                  | t ->
                      Hashtbl.replace env out t;
                      Ok ()
                  | exception Invalid_argument e -> Error e)
            | s -> err "malformed node %s" (Sexp.excerpt s))
          (Ok ()) nodes
      in
      let* () =
        List.fold_left
          (fun acc o ->
            let* () = acc in
            match o with
            | Sexp.Atom n ->
                let* t = resolve "output" n in
                Graph.Builder.output b t;
                Ok ()
            | s -> err "malformed output %s" (Sexp.excerpt s))
          (Ok ()) outputs
      in
      Ok (Graph.Builder.finish b)
  | s -> err "malformed graph %s" (Sexp.excerpt s)

let graph_of_string input =
  let* sexp = Sexp.of_string input in
  graph_of_sexp sexp

(* --- expressions -------------------------------------------------------- *)

let rec expr_to_sexp = function
  | Expr.Leaf t -> Sexp.list [ Sexp.atom "tensor"; Sexp.atom (Tensor.name t) ]
  | Expr.App (op, args) -> (
      (* Render as (opname attrs... (args...)) reusing the operator
         encoding above. *)
      match op_to_sexp op with
      | Sexp.List op_parts ->
          Sexp.list (op_parts @ [ Sexp.list (List.map expr_to_sexp args) ])
      | Sexp.Atom _ as a ->
          Sexp.list [ a; Sexp.list (List.map expr_to_sexp args) ])

let rec expr_of_sexp ~resolve = function
  | Sexp.List [ Sexp.Atom "tensor"; Sexp.Atom name ] | Sexp.Atom name -> (
      match resolve name with
      | Some t -> Ok (Expr.leaf t)
      | None -> err "unknown tensor %s" (Sexp.excerpt (Sexp.Atom name)))
  | Sexp.List parts as sexp -> (
      match List.rev parts with
      | Sexp.List args :: rev_op when rev_op <> [] ->
          let op_sexp = Sexp.list (List.rev rev_op) in
          let* op = op_of_sexp op_sexp in
          let* args = map_result (expr_of_sexp ~resolve) args in
          Ok (Expr.app op args)
      | _ -> err "malformed expression %s" (Sexp.excerpt sexp))
