type t = Atom of string | List of t list

let atom s = Atom s
let list l = List l

let needs_quotes s =
  s = ""
  || String.exists
       (fun c ->
         c = ' ' || c = '(' || c = ')' || c = '"' || c = '\n' || c = '\t'
         || c = '\r' || c = ';')
       s

let rec pp ppf = function
  | Atom s -> if needs_quotes s then Fmt.pf ppf "%S" s else Fmt.string ppf s
  | List l -> Fmt.pf ppf "@[<hov 1>(%a)@]" (Fmt.list ~sep:Fmt.sp pp) l

let to_string t = Fmt.str "%a" pp t

let excerpt_bytes = 200

exception Full

let excerpt t =
  let buf = Buffer.create 64 in
  let add s =
    let room = excerpt_bytes - Buffer.length buf in
    if String.length s <= room then Buffer.add_string buf s
    else begin
      Buffer.add_string buf (String.sub s 0 room);
      raise Full
    end
  in
  let rec go = function
    | Atom s when needs_quotes s ->
        (* Escaping never shortens, so a bound-sized prefix suffices. *)
        let s = String.sub s 0 (min (String.length s) excerpt_bytes) in
        add ("\"" ^ String.escaped s ^ "\"")
    | Atom s -> add s
    | List l ->
        add "(";
        List.iteri
          (fun i x ->
            if i > 0 then add " ";
            go x)
          l;
        add ")"
  in
  (try go t with Full -> Buffer.add_string buf "...");
  Buffer.contents buf

(* --- parsing ------------------------------------------------------- *)

type token = Lparen | Rparen | Tatom of string

let tokenize input =
  let n = String.length input in
  let tokens = ref [] in
  let i = ref 0 in
  let error = ref None in
  while !i < n && !error = None do
    let c = input.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = ';' then begin
      while !i < n && input.[!i] <> '\n' do
        incr i
      done
    end
    else if c = '(' then begin
      tokens := Lparen :: !tokens;
      incr i
    end
    else if c = ')' then begin
      tokens := Rparen :: !tokens;
      incr i
    end
    else if c = '"' then begin
      let buf = Buffer.create 16 in
      incr i;
      let closed = ref false in
      while !i < n && not !closed do
        if input.[!i] = '"' then closed := true
        else if input.[!i] = '\\' && !i + 1 < n then begin
          (* Quoted atoms are printed with [%S]; invert the OCaml
             lexical escapes so strings with newlines/tabs round-trip
             (the wire protocol ships rendered reports this way). *)
          (match input.[!i + 1] with
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | 'b' -> Buffer.add_char buf '\b'
          | '0' .. '9' when !i + 3 < n ->
              let code =
                try int_of_string (String.sub input (!i + 1) 3)
                with Failure _ -> -1
              in
              if code >= 0 && code <= 255 then begin
                Buffer.add_char buf (Char.chr code);
                i := !i + 2
              end
              else Buffer.add_char buf input.[!i + 1]
          | c -> Buffer.add_char buf c);
          incr i
        end
        else Buffer.add_char buf input.[!i];
        incr i
      done;
      if not !closed then error := Some "unterminated string"
      else tokens := Tatom (Buffer.contents buf) :: !tokens
    end
    else begin
      let start = !i in
      while
        !i < n
        &&
        let c = input.[!i] in
        not
          (c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '(' || c = ')'
         || c = '"' || c = ';')
      do
        incr i
      done;
      tokens := Tatom (String.sub input start (!i - start)) :: !tokens
    end
  done;
  match !error with
  | Some e -> Error e
  | None -> Ok (List.rev !tokens)

let max_depth = 1_000

let of_string input =
  let ( let* ) = Result.bind in
  let* tokens = tokenize input in
  (* [depth] counts the lists enclosing the term being parsed. *)
  let rec parse_one depth = function
    | [] -> Error "unexpected end of input"
    | Tatom a :: rest -> Ok (Atom a, rest)
    | Lparen :: _ when depth >= max_depth ->
        Error (Printf.sprintf "lists nest deeper than %d levels" max_depth)
    | Lparen :: rest -> items (depth + 1) [] rest
    | Rparen :: _ -> Error "unexpected closing parenthesis"
  and items depth acc = function
    | Rparen :: rest -> Ok (List (List.rev acc), rest)
    | [] -> Error "missing closing parenthesis"
    | tokens -> (
        match parse_one depth tokens with
        | Ok (item, rest) -> items depth (item :: acc) rest
        | Error _ as e -> e)
  in
  let* sexp, rest = parse_one 0 tokens in
  match rest with
  | [] -> Ok sexp
  | _ -> Error "trailing input after S-expression"
