module Float_util = Wavesyn_util.Float_util

type error =
  | Bad_value of {
      path : string option;
      line : int;
      token : string;
      reason : string;
    }
  | Bad_shape of { what : string; reason : string }
  | Bad_budget of { budget : int; reason : string }
  | Bad_epsilon of { epsilon : float; reason : string }
  | Bad_option of { what : string; reason : string }
  | Io_error of { path : string; reason : string }
  | Timeout of { what : string; ms : float }

let to_string = function
  | Bad_value { path; line; token; reason } ->
      let where =
        match path with
        | Some p -> Printf.sprintf "%s:%d" p line
        | None -> Printf.sprintf "position %d" line
      in
      Printf.sprintf "%s: bad value %S: %s" where token reason
  | Bad_shape { what; reason } -> Printf.sprintf "%s: %s" what reason
  | Bad_budget { budget; reason } ->
      Printf.sprintf "budget %d: %s" budget reason
  | Bad_epsilon { epsilon; reason } ->
      Printf.sprintf "epsilon %g: %s" epsilon reason
  | Bad_option { what; reason } -> Printf.sprintf "%s: %s" what reason
  | Io_error { path; reason } ->
      (* [Sys_error] messages already lead with the path. *)
      if String.starts_with ~prefix:(path ^ ": ") reason then reason
      else Printf.sprintf "%s: %s" path reason
  | Timeout { what; ms } ->
      Printf.sprintf "%s: timed out after %gms" what ms

let exit_code = function
  | Bad_option _ -> 2
  | Io_error _ -> 66
  | Timeout _ -> 75
  | Bad_value _ | Bad_shape _ | Bad_budget _ | Bad_epsilon _ -> 65

let parse_float ?path ~line token =
  let token = String.trim token in
  match float_of_string_opt token with
  | None -> Error (Bad_value { path; line; token; reason = "not a number" })
  | Some f when not (Float.is_finite f) ->
      Error
        (Bad_value { path; line; token; reason = "not finite (NaN/Inf)" })
  | Some f -> Ok f

let default_max_bytes = 1 lsl 26 (* 64 MiB *)
let default_max_line_bytes = 1024
let default_max_values = 1 lsl 22

(* Bounded line reader: adversarial inputs (multi-gigabyte files, a
   single newline-free line) must hit a cap and a structured error, not
   an unbounded allocation. Reads in fixed chunks; every cap is checked
   before the offending bytes are retained. *)
let read_lines ~max_bytes ~max_line_bytes ~max_values path ~parse =
  match open_in_bin path with
  | exception Sys_error reason -> Error (Io_error { path; reason })
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let values = ref [] in
          let count = ref 0 in
          let err = ref None in
          let line_no = ref 0 in
          let line = Buffer.create 64 in
          let total = ref 0 in
          let chunk = Bytes.create 8192 in
          let set e = if !err = None then err := Some e in
          let flush_line () =
            incr line_no;
            let token = String.trim (Buffer.contents line) in
            Buffer.clear line;
            if token <> "" then
              match parse ~line:!line_no token with
              | Error e -> set e
              | Ok v ->
                  incr count;
                  if !count > max_values then
                    set
                      (Bad_shape
                         {
                           what = path;
                           reason =
                             Printf.sprintf "more than %d values" max_values;
                         })
                  else values := v :: !values
          in
          (* CRLF tolerance: a '\r' is held back one character, so the
             "\r\n" pair collapses to a plain line break (and does not
             count against [max_line_bytes]); a lone '\r' is an
             ordinary byte and reaches the parser as such. *)
          let pending_cr = ref false in
          let add_char c =
            if Buffer.length line >= max_line_bytes then
              set
                (Bad_value
                   {
                     path = Some path;
                     line = !line_no + 1;
                     token =
                       (let b = Buffer.contents line in
                        String.sub b 0 (Stdlib.min 32 (String.length b))
                        ^ "...");
                     reason =
                       Printf.sprintf "line exceeds %d bytes" max_line_bytes;
                   })
            else Buffer.add_char line c
          in
          let eof = ref false in
          while !err = None && not !eof do
            match input ic chunk 0 (Bytes.length chunk) with
            | 0 | (exception End_of_file) ->
                eof := true;
                if !pending_cr then add_char '\r';
                pending_cr := false;
                (* A final line without a trailing newline is data, not
                   an error: flush whatever the buffer holds. *)
                if !err = None && Buffer.length line > 0 then flush_line ()
            | k ->
                total := !total + k;
                if !total > max_bytes then
                  set
                    (Bad_shape
                       {
                         what = path;
                         reason = Printf.sprintf "exceeds %d bytes" max_bytes;
                       })
                else
                  let i = ref 0 in
                  while !err = None && !i < k do
                    (match Bytes.get chunk !i with
                    | '\n' ->
                        pending_cr := false;
                        flush_line ()
                    | c ->
                        if !pending_cr then add_char '\r';
                        pending_cr := false;
                        if c = '\r' then pending_cr := true
                        else add_char c);
                    incr i
                  done
          done;
          match !err with
          | Some e -> Error e
          | None ->
              if !values = [] then
                Error
                  (Bad_shape
                     { what = path; reason = "no data values (empty input)" })
              else Ok (Array.of_list (List.rev !values)))

let read_whole path =
  match open_in_bin path with
  | exception Sys_error reason -> Error (Io_error { path; reason })
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match really_input_string ic (in_channel_length ic) with
          | text -> Ok text
          | exception _ -> Error (Io_error { path; reason = "short read" }))

let read_file ?(max_bytes = default_max_bytes)
    ?(max_line_bytes = default_max_line_bytes)
    ?(max_values = default_max_values) path =
  read_lines ~max_bytes ~max_line_bytes ~max_values path
    ~parse:(fun ~line token -> parse_float ~path ~line token)

let read_updates ?(max_bytes = default_max_bytes)
    ?(max_line_bytes = default_max_line_bytes)
    ?(max_values = default_max_values) path =
  let parse ~line token =
    let bad reason = Error (Bad_value { path = Some path; line; token; reason }) in
    match
      String.split_on_char ' ' token |> List.filter (fun s -> s <> "")
    with
    | [ i; delta ] -> (
        match int_of_string_opt i with
        | None -> bad "cell index is not an integer"
        | Some i when i < 0 -> bad "cell index is negative"
        | Some i -> (
            match parse_float ~path ~line delta with
            | Ok delta -> Ok (i, delta)
            | Error e -> Error e))
    | _ -> bad "expected two tokens: <cell> <delta>"
  in
  read_lines ~max_bytes ~max_line_bytes ~max_values path ~parse

let data ?(what = "data") ?(require_pow2 = false) arr =
  let n = Array.length arr in
  if n = 0 then Error (Bad_shape { what; reason = "empty dataset" })
  else if require_pow2 && not (Float_util.is_pow2 n) then
    Error
      (Bad_shape
         {
           what;
           reason =
             Printf.sprintf "length %d is not a power of two" n;
         })
  else begin
    let bad = ref None in
    Array.iteri
      (fun i v ->
        if !bad = None && not (Float.is_finite v) then
          bad :=
            Some
              (Bad_value
                 {
                   path = None;
                   line = i + 1;
                   token = Printf.sprintf "%h" v;
                   reason = "not finite (NaN/Inf)";
                 }))
      arr;
    match !bad with Some e -> Error e | None -> Ok arr
  end

let budget b =
  if b < 0 then
    Error (Bad_budget { budget = b; reason = "must be non-negative" })
  else Ok b

let epsilon e =
  if Float.is_finite e && e > 0. && e <= 1. then Ok e
  else Error (Bad_epsilon { epsilon = e; reason = "must lie in (0, 1]" })
