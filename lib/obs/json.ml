(* Minimal JSON reader for the observability tooling.

   The repo deliberately carries no third-party JSON dependency: [Sink]
   hand-renders its records, bench/main.ml renders through [render],
   and this module is the matching hand-rolled reader used by the
   trace-report and bench-gate tools.  It parses the full JSON value grammar
   (objects, arrays, strings with escapes, numbers, literals) but keeps
   numbers as floats — every numeric field we emit fits exactly. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

type state = { src : string; mutable pos : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  let n = String.length st.src in
  while
    st.pos < n
    && match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    advance st
  done

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | Some c' -> fail "expected '%c' at offset %d, found '%c'" c st.pos c'
  | None -> fail "expected '%c' at offset %d, found end of input" c st.pos

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.src
    && String.sub st.src st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail "invalid literal at offset %d" st.pos

let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> fail "invalid hex digit '%c'" c

let parse_string st =
  expect st '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail "unterminated string at offset %d" st.pos
    | Some '"' -> advance st
    | Some '\\' ->
      advance st;
      (match peek st with
      | None -> fail "unterminated escape at offset %d" st.pos
      | Some c ->
        advance st;
        (match c with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          if st.pos + 4 > String.length st.src then
            fail "truncated \\u escape at offset %d" st.pos;
          let code = ref 0 in
          for _ = 1 to 4 do
            code := (!code * 16) + hex_digit st.src.[st.pos];
            advance st
          done;
          (* we only ever emit ASCII control escapes; decode the
             single-byte range and pass anything else through as '?' *)
          if !code < 0x80 then Buffer.add_char b (Char.chr !code)
          else Buffer.add_char b '?'
        | c -> fail "invalid escape '\\%c'" c));
      go ()
    | Some c ->
      advance st;
      Buffer.add_char b c;
      go ()
  in
  go ();
  Buffer.contents b

let parse_number st =
  let start = st.pos in
  let n = String.length st.src in
  while
    st.pos < n
    &&
    match st.src.[st.pos] with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  do
    advance st
  done;
  let s = String.sub st.src start (st.pos - start) in
  match float_of_string_opt s with
  | Some f -> Num f
  | None -> fail "invalid number %S at offset %d" s start

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail "unexpected end of input at offset %d" st.pos
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin
      advance st;
      Obj []
    end
    else begin
      let fields = ref [] in
      let rec members () =
        skip_ws st;
        let k = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        fields := (k, v) :: !fields;
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          members ()
        | Some '}' -> advance st
        | _ -> fail "expected ',' or '}' at offset %d" st.pos
      in
      members ();
      Obj (List.rev !fields)
    end
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      Arr []
    end
    else begin
      let items = ref [] in
      let rec elements () =
        let v = parse_value st in
        items := v :: !items;
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          elements ()
        | Some ']' -> advance st
        | _ -> fail "expected ',' or ']' at offset %d" st.pos
      in
      elements ();
      Arr (List.rev !items)
    end
  | Some '"' -> Str (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some _ -> parse_number st

let parse s =
  let st = { src = s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then
    fail "trailing garbage at offset %d" st.pos;
  v

(* ------------------------------------------------------------------ *)
(* Accessors.                                                         *)

let kind = function
  | Null -> "null"
  | Bool _ -> "bool"
  | Num _ -> "number"
  | Str _ -> "string"
  | Arr _ -> "array"
  | Obj _ -> "object"

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | v -> fail "expected object with %S, found %s" key (kind v)

let member_exn key v =
  match member key v with
  | Some x -> x
  | None -> fail "missing key %S" key

let to_num = function
  | Num f -> f
  | v -> fail "expected number, found %s" (kind v)

let to_int v =
  let f = to_num v in
  let i = int_of_float f in
  if float_of_int i <> f then fail "expected integer, found %g" f;
  i

let to_str = function
  | Str s -> s
  | v -> fail "expected string, found %s" (kind v)

let to_arr = function
  | Arr l -> l
  | v -> fail "expected array, found %s" (kind v)

let to_obj = function
  | Obj fields -> fields
  | v -> fail "expected object, found %s" (kind v)

(* ------------------------------------------------------------------ *)
(* Rendering.  The inverse of [parse], shared by the Chrome-trace
   exporter and the prof.* span fields so every writer and the reader
   agree on one float format.                                         *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Shortest decimal form that parses back to the same float: integers
   render without an exponent or trailing ".", everything else tries
   15 significant digits before falling back to the always-exact 17.
   JSON has no Inf/NaN tokens, so non-finite values render as null. *)
let float_string f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let render v =
  let b = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool true -> Buffer.add_string b "true"
    | Bool false -> Buffer.add_string b "false"
    | Num f -> Buffer.add_string b (float_string f)
    | Str s ->
      Buffer.add_char b '"';
      Buffer.add_string b (escape s);
      Buffer.add_char b '"'
    | Arr l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          go x)
        l;
      Buffer.add_char b ']'
    | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '"';
          Buffer.add_string b (escape k);
          Buffer.add_string b "\":";
          go x)
        fields;
      Buffer.add_char b '}'
  in
  go v;
  Buffer.contents b
