type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ---------- printing ---------- *)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* The C primitive behind [Printf]'s [%g]: the same digits, without
   interpreting a format string on every call. *)
external format_float : string -> float -> string = "caml_format_float"

let float_to_string f =
  match Float.classify_float f with
  | Float.FP_nan | Float.FP_infinite -> "null" (* JSON has no non-finite *)
  | _ ->
      (* Shortest decimal that round-trips. *)
      let s = format_float "%.15g" f in
      let s =
        if float_of_string s = f then s
        else
          let s = format_float "%.16g" f in
          if float_of_string s = f then s else format_float "%.17g" f
      in
      (* Keep floats recognisable as floats on re-parse. *)
      if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
      else s ^ ".0"

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_to_string f)
  | String s -> escape_string buf s
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_string buf k;
          Buffer.add_char buf ':';
          to_buffer buf v)
        fields;
      Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  to_buffer buf j;
  Buffer.contents buf

let pp fmt j = Format.pp_print_string fmt (to_string j)

(* ---------- parsing ---------- *)

exception Parse_error of string

let parse_error fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

type state = { src : string; mutable pos : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  let rec go () =
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance st;
        go ()
    | _ -> ()
  in
  go ()

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | Some c' -> parse_error "expected %c at offset %d, got %c" c st.pos c'
  | None -> parse_error "expected %c at offset %d, got end of input" c st.pos

let expect_literal st lit value =
  if
    st.pos + String.length lit <= String.length st.src
    && String.sub st.src st.pos (String.length lit) = lit
  then begin
    st.pos <- st.pos + String.length lit;
    value
  end
  else parse_error "invalid literal at offset %d" st.pos

let utf8_of_code buf code =
  (* Encode a Unicode code point as UTF-8. *)
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

let parse_hex4 st =
  let code = ref 0 in
  for _ = 1 to 4 do
    (match peek st with
    | Some c ->
        let d =
          match c with
          | '0' .. '9' -> Char.code c - Char.code '0'
          | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
          | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
          | _ -> parse_error "bad \\u escape at offset %d" st.pos
        in
        code := (!code * 16) + d
    | None -> parse_error "truncated \\u escape");
    advance st
  done;
  !code

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> parse_error "unterminated string"
    | Some '"' ->
        advance st;
        Buffer.contents buf
    | Some '\\' -> (
        advance st;
        match peek st with
        | None -> parse_error "unterminated escape"
        | Some c ->
            advance st;
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'u' -> utf8_of_code buf (parse_hex4 st)
            | c -> parse_error "bad escape \\%c" c);
            go ())
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        go ()
  in
  go ()

let parse_number st =
  let start = st.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  let rec go () =
    match peek st with
    | Some c when is_num_char c ->
        advance st;
        go ()
    | _ -> ()
  in
  go ();
  let s = String.sub st.src start (st.pos - start) in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> parse_error "bad number %S at offset %d" s start
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> parse_error "bad number %S at offset %d" s start

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> parse_error "unexpected end of input"
  | Some 'n' -> expect_literal st "null" Null
  | Some 't' -> expect_literal st "true" (Bool true)
  | Some 'f' -> expect_literal st "false" (Bool false)
  | Some '"' -> String (parse_string st)
  | Some '[' ->
      advance st;
      skip_ws st;
      if peek st = Some ']' then begin
        advance st;
        List []
      end
      else
        let rec items acc =
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              items (v :: acc)
          | Some ']' ->
              advance st;
              List (List.rev (v :: acc))
          | _ -> parse_error "expected , or ] at offset %d" st.pos
        in
        items []
  | Some '{' ->
      advance st;
      skip_ws st;
      if peek st = Some '}' then begin
        advance st;
        Obj []
      end
      else
        let rec fields acc =
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              fields ((k, v) :: acc)
          | Some '}' ->
              advance st;
              Obj (List.rev ((k, v) :: acc))
          | _ -> parse_error "expected , or } at offset %d" st.pos
        in
        fields []
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> parse_error "unexpected character %c at offset %d" c st.pos

let of_string s =
  let st = { src = s; pos = 0 } in
  match parse_value st with
  | v ->
      skip_ws st;
      if st.pos = String.length s then Ok v
      else Error (Printf.sprintf "trailing garbage at offset %d" st.pos)
  | exception Parse_error e -> Error e

(* ---------- accessors ---------- *)

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let get_int = function
  | Int i -> Some i
  | Float f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let get_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let get_string = function String s -> Some s | _ -> None
let get_bool = function Bool b -> Some b | _ -> None
let get_list = function List l -> Some l | _ -> None
