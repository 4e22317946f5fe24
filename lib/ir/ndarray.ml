type t = { dims : int array; data : float array }

let numel_of dims = Array.fold_left ( * ) 1 dims

let strides_of dims =
  let n = Array.length dims in
  let s = Array.make n 1 in
  for i = n - 2 downto 0 do
    s.(i) <- s.(i + 1) * dims.(i + 1)
  done;
  s

let create dims fill =
  let dims = Array.of_list dims in
  { dims; data = Array.make (numel_of dims) fill }

let dims t = Array.to_list t.dims
let rank t = Array.length t.dims
let numel t = Array.length t.data

let offset_of t idx =
  let s = strides_of t.dims in
  List.fold_left ( + ) 0 (List.mapi (fun i j -> s.(i) * j) idx)

let get t idx = t.data.(offset_of t idx)
let set t idx v = t.data.(offset_of t idx) <- v

(* Enumerate multi-indices of [dims] in row-major order, reusing one
   mutable index array. *)
let iter_indices dims f =
  let n = Array.length dims in
  if numel_of dims > 0 then begin
    let idx = Array.make n 0 in
    let rec bump i =
      if i >= 0 then begin
        idx.(i) <- idx.(i) + 1;
        if idx.(i) = dims.(i) then begin
          idx.(i) <- 0;
          bump (i - 1)
        end
      end
    in
    let total = numel_of dims in
    for off = 0 to total - 1 do
      f off idx;
      bump (n - 1)
    done
  end

let init dims f =
  let t = create dims 0. in
  iter_indices t.dims (fun off idx -> t.data.(off) <- f (Array.to_list idx));
  t

let scalar v = { dims = [||]; data = [| v |] }

let of_list dims vals =
  let t = create dims 0. in
  if List.length vals <> numel t then invalid_arg "Ndarray.of_list: size";
  List.iteri (fun i v -> t.data.(i) <- v) vals;
  t

let to_flat_list t = Array.to_list t.data

let random st dims =
  let t = create dims 0. in
  Array.iteri (fun i _ -> t.data.(i) <- Random.State.float st 2.0 -. 1.0) t.data;
  t

let random_ints st ~hi dims =
  let t = create dims 0. in
  Array.iteri
    (fun i _ -> t.data.(i) <- float_of_int (Random.State.int st hi))
    t.data;
  t

let map f t = { t with data = Array.map f t.data }

let broadcast_dims a b =
  let ra = Array.length a and rb = Array.length b in
  let n = max ra rb in
  let da i = if i < n - ra then 1 else a.(i - (n - ra)) in
  let db i = if i < n - rb then 1 else b.(i - (n - rb)) in
  Array.init n (fun i ->
      let x = da i and y = db i in
      if x = y then x
      else if x = 1 then y
      else if y = 1 then x
      else invalid_arg "Ndarray: broadcast mismatch")

(* Strides of [t] over a broadcast result of rank [n]: trailing dims
   align; the missing leading dims and size-1 dims of [t] contribute
   stride 0. *)
let bcast_strides t n =
  let r = Array.length t.dims in
  let s = strides_of t.dims in
  Array.init n (fun i ->
      let j = i - (n - r) in
      if j < 0 || t.dims.(j) = 1 then 0 else s.(j))

let same_dims a b =
  Array.length a = Array.length b && Array.for_all2 Int.equal a b

(* [f] sees the operand pairs in the result's row-major order whichever
   path runs: when both operands already have the result's shape, the
   offsets into them are the result's own. *)
let map2 f a b =
  let dims = broadcast_dims a.dims b.dims in
  let out = { dims; data = Array.make (numel_of dims) 0. } in
  if same_dims a.dims dims && same_dims b.dims dims then
    for off = 0 to Array.length out.data - 1 do
      out.data.(off) <- f a.data.(off) b.data.(off)
    done
  else begin
    let n = Array.length dims in
    let sa = bcast_strides a n and sb = bcast_strides b n in
    iter_indices dims (fun off idx ->
        let oa = ref 0 and ob = ref 0 in
        for i = 0 to n - 1 do
          oa := !oa + (sa.(i) * idx.(i));
          ob := !ob + (sb.(i) * idx.(i))
        done;
        out.data.(off) <- f a.data.(!oa) b.data.(!ob))
  end;
  out

let add = map2 ( +. )
let sub = map2 ( -. )
let mul = map2 ( *. )
let div = map2 ( /. )
let scale k t = map (fun x -> k *. x) t

let sum_list = function
  | [] -> invalid_arg "Ndarray.sum_list: empty"
  | x :: rest -> List.fold_left add x rest

let matmul2 a b ~ad ~bd ~aoff ~boff out ~ooff =
  let m = ad.(0) and k = ad.(1) and n = bd.(1) in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let acc = ref 0. in
      for l = 0 to k - 1 do
        acc := !acc +. (a.(aoff + (i * k) + l) *. b.(boff + (l * n) + j))
      done;
      out.(ooff + (i * n) + j) <- !acc
    done
  done

let matmul a b =
  let ra = rank a and rb = rank b in
  if ra < 2 || rb < 2 then invalid_arg "Ndarray.matmul: rank";
  let m = a.dims.(ra - 2) and k = a.dims.(ra - 1) in
  let kb = b.dims.(rb - 2) and n = b.dims.(rb - 1) in
  if k <> kb then invalid_arg "Ndarray.matmul: inner dims";
  let batch_a = Array.sub a.dims 0 (ra - 2) in
  let batch_b = Array.sub b.dims 0 (rb - 2) in
  let batch =
    if rb = 2 then batch_a
    else if batch_a = batch_b then batch_a
    else invalid_arg "Ndarray.matmul: batch dims"
  in
  let nb = numel_of batch in
  let dims = Array.append batch [| m; n |] in
  let out = { dims; data = Array.make (numel_of dims) 0. } in
  let astep = m * k and bstep = if rb = 2 then 0 else k * n in
  let ostep = m * n in
  for i = 0 to nb - 1 do
    matmul2 a.data b.data ~ad:[| m; k |] ~bd:[| k; n |] ~aoff:(i * astep)
      ~boff:(i * bstep) out.data ~ooff:(i * ostep)
  done;
  out

let norm_axis t dim =
  let r = rank t in
  let d = if dim < 0 then r + dim else dim in
  if d < 0 || d >= r then invalid_arg "Ndarray: axis out of range";
  d

let concat ~dim = function
  | [] -> invalid_arg "Ndarray.concat: empty"
  | first :: _ as ts ->
      let d = norm_axis first dim in
      let total = List.fold_left (fun acc t -> acc + t.dims.(d)) 0 ts in
      let dims = Array.copy first.dims in
      dims.(d) <- total;
      let out = { dims; data = Array.make (numel_of dims) 0. } in
      let offset = ref 0 in
      List.iter
        (fun t ->
          iter_indices t.dims (fun off idx ->
              let tgt = Array.copy idx in
              tgt.(d) <- tgt.(d) + !offset;
              let s = strides_of dims in
              let o = ref 0 in
              Array.iteri (fun i j -> o := !o + (s.(i) * j)) tgt;
              out.data.(!o) <- t.data.(off));
          offset := !offset + t.dims.(d))
        ts;
      out

let slice ~dim ~start ~stop t =
  let d = norm_axis t dim in
  if start < 0 || stop > t.dims.(d) || start > stop then
    invalid_arg "Ndarray.slice: bounds";
  let dims = Array.copy t.dims in
  dims.(d) <- stop - start;
  let out = { dims; data = Array.make (numel_of dims) 0. } in
  let s = strides_of t.dims in
  iter_indices dims (fun off idx ->
      let o = ref 0 in
      Array.iteri
        (fun i j -> o := !o + (s.(i) * if i = d then j + start else j))
        idx;
      out.data.(off) <- t.data.(!o));
  out

let transpose ~dim0 ~dim1 t =
  let d0 = norm_axis t dim0 and d1 = norm_axis t dim1 in
  let dims = Array.copy t.dims in
  dims.(d0) <- t.dims.(d1);
  dims.(d1) <- t.dims.(d0);
  let out = { dims; data = Array.make (numel_of dims) 0. } in
  let s = strides_of t.dims in
  iter_indices dims (fun off idx ->
      let swapped = Array.copy idx in
      swapped.(d0) <- idx.(d1);
      swapped.(d1) <- idx.(d0);
      let o = ref 0 in
      Array.iteri (fun i j -> o := !o + (s.(i) * j)) swapped;
      out.data.(off) <- t.data.(!o));
  out

let reshape dims t =
  let dims = Array.of_list dims in
  if numel_of dims <> numel t then invalid_arg "Ndarray.reshape: size";
  { dims; data = Array.copy t.data }

let pad ~dim ~before ~after t =
  let d = norm_axis t dim in
  let dims = Array.copy t.dims in
  dims.(d) <- t.dims.(d) + before + after;
  let out = { dims; data = Array.make (numel_of dims) 0. } in
  let s = strides_of dims in
  iter_indices t.dims (fun off idx ->
      let o = ref 0 in
      Array.iteri
        (fun i j -> o := !o + (s.(i) * if i = d then j + before else j))
        idx;
      out.data.(!o) <- t.data.(off));
  out

let reduce_with ~init ~f ~post ~dim ~keepdim t =
  let d = norm_axis t dim in
  let out_dims = Array.copy t.dims in
  out_dims.(d) <- 1;
  let out = { dims = out_dims; data = Array.make (numel_of out_dims) init } in
  let counts = Array.make (numel_of out_dims) 0 in
  let s = strides_of out_dims in
  iter_indices t.dims (fun off idx ->
      let o = ref 0 in
      Array.iteri (fun i j -> o := !o + (s.(i) * if i = d then 0 else j)) idx;
      out.data.(!o) <- f out.data.(!o) t.data.(off);
      counts.(!o) <- counts.(!o) + 1);
  Array.iteri (fun i v -> out.data.(i) <- post v counts.(i)) out.data;
  if keepdim then out
  else
    let dims =
      Array.of_list
        (List.filteri (fun i _ -> i <> d) (Array.to_list t.dims))
    in
    { dims; data = out.data }

let reduce_sum ~dim ~keepdim t =
  reduce_with ~init:0. ~f:( +. ) ~post:(fun v _ -> v) ~dim ~keepdim t

let reduce_mean ~dim ~keepdim t =
  reduce_with ~init:0. ~f:( +. )
    ~post:(fun v c -> v /. float_of_int (max 1 c))
    ~dim ~keepdim t

let reduce_max ~dim ~keepdim t =
  reduce_with ~init:neg_infinity ~f:max ~post:(fun v _ -> v) ~dim ~keepdim t

let softmax ~dim t =
  let m = reduce_max ~dim ~keepdim:true t in
  let e = map exp (sub t m) in
  let z = reduce_sum ~dim ~keepdim:true e in
  div e z

let layernorm ~eps x w b =
  let mean = reduce_mean ~dim:(-1) ~keepdim:true x in
  let centered = sub x mean in
  let var = reduce_mean ~dim:(-1) ~keepdim:true (mul centered centered) in
  let inv = map (fun v -> 1. /. sqrt (v +. eps)) var in
  add (mul (mul centered inv) w) b

let rmsnorm ~eps x w =
  let ms = reduce_mean ~dim:(-1) ~keepdim:true (mul x x) in
  let inv = map (fun v -> 1. /. sqrt (v +. eps)) ms in
  mul (mul x inv) w

let embedding w ids =
  if rank w <> 2 then invalid_arg "Ndarray.embedding: weight rank";
  let d = w.dims.(1) in
  let out_dims = Array.append ids.dims [| d |] in
  let out = { dims = out_dims; data = Array.make (numel_of out_dims) 0. } in
  Array.iteri
    (fun i id ->
      let row = int_of_float id in
      Array.blit w.data (row * d) out.data (i * d) d)
    ids.data;
  out

(* Rotate-half rotary embedding on the last dimension:
   out = x * cos + rotate_half(x) * sin, with
   rotate_half([x1; x2]) = [-x2; x1]. *)
let rope x cos sin =
  let r = rank x in
  let d = x.dims.(r - 1) in
  if d mod 2 <> 0 then invalid_arg "Ndarray.rope: odd last dim";
  let h = d / 2 in
  let lo = slice ~dim:(r - 1) ~start:0 ~stop:h x in
  let hi = slice ~dim:(r - 1) ~start:h ~stop:d x in
  let rot = concat ~dim:(r - 1) [ map (fun v -> -.v) hi; lo ] in
  add (mul x cos) (mul rot sin)

let mse_loss p t =
  if p.dims <> t.dims then invalid_arg "Ndarray.mse_loss: dims";
  let n = float_of_int (numel p) in
  let acc = ref 0. in
  Array.iteri
    (fun i x ->
      let dlt = x -. t.data.(i) in
      acc := !acc +. (dlt *. dlt))
    p.data;
  scalar (!acc /. n)

let cross_entropy logits targets =
  if rank logits <> 2 then invalid_arg "Ndarray.cross_entropy: rank";
  let s = logits.dims.(0) and v = logits.dims.(1) in
  let acc = ref 0. in
  for i = 0 to s - 1 do
    let mx = ref neg_infinity in
    for j = 0 to v - 1 do
      mx := max !mx logits.data.((i * v) + j)
    done;
    let z = ref 0. in
    for j = 0 to v - 1 do
      z := !z +. exp (logits.data.((i * v) + j) -. !mx)
    done;
    let tgt = int_of_float targets.data.(i) in
    acc := !acc +. (!mx +. log !z -. logits.data.((i * v) + tgt))
  done;
  scalar (!acc /. float_of_int s)

let silu t = map (fun x -> x /. (1. +. exp (-.x))) t

let gelu t =
  let c = sqrt (2. /. Float.pi) in
  map
    (fun x -> 0.5 *. x *. (1. +. tanh (c *. (x +. (0.044715 *. x *. x *. x)))))
    t

let max_abs_diff a b =
  if a.dims <> b.dims then infinity
  else begin
    let m = ref 0. in
    Array.iteri (fun i x -> m := max !m (abs_float (x -. b.data.(i)))) a.data;
    !m
  end

let approx_equal ?(tol = 1e-4) a b = max_abs_diff a b <= tol

let pp ppf t =
  Fmt.pf ppf "ndarray%a %a"
    Fmt.(brackets (list ~sep:(any "x") int))
    (dims t)
    Fmt.(brackets (list ~sep:(any "; ") float))
    (Array.to_list t.data |> fun l ->
     if List.length l <= 16 then l
     else List.filteri (fun i _ -> i < 16) l)
