let day_names = [| "Sun"; "Mon"; "Tue"; "Wed"; "Thu"; "Fri"; "Sat" |]

let month_names =
  [| "Jan"; "Feb"; "Mar"; "Apr"; "May"; "Jun"; "Jul"; "Aug"; "Sep"; "Oct"; "Nov"; "Dec" |]

(* Howard Hinnant's civil-from-days algorithm. *)
let civil_from_days z =
  let z = z + 719468 in
  let era = (if z >= 0 then z else z - 146096) / 146097 in
  let doe = z - (era * 146097) in
  let yoe = (doe - (doe / 1460) + (doe / 36524) - (doe / 146096)) / 365 in
  let y = yoe + (era * 400) in
  let doy = doe - ((365 * yoe) + (yoe / 4) - (yoe / 100)) in
  let mp = ((5 * doy) + 2) / 153 in
  let d = doy - (((153 * mp) + 2) / 5) + 1 in
  let m = if mp < 10 then mp + 3 else mp - 9 in
  let y = if m <= 2 then y + 1 else y in
  (y, m, d)

let days_from_civil y m d =
  let y = if m <= 2 then y - 1 else y in
  let era = (if y >= 0 then y else y - 399) / 400 in
  let yoe = y - (era * 400) in
  let mp = if m > 2 then m - 3 else m + 9 in
  let doy = (((153 * mp) + 2) / 5) + d - 1 in
  let doe = (365 * yoe) + (yoe / 4) - (yoe / 100) + doy in
  (era * 146097) + doe - 719468

let rec digits n = if n < 10 then 1 else 1 + digits (n / 10)

(* [n] (0-99) as two digits at [pos]. *)
let put2 b pos n =
  Bytes.set b pos (Char.chr (48 + (n / 10)));
  Bytes.set b (pos + 1) (Char.chr (48 + (n mod 10)))

(* The digits of [n >= 0] ending at [last], zero-filled back to [first]. *)
let rec put_digits b ~first last n =
  if last >= first then begin
    Bytes.set b last (Char.chr (48 + (n mod 10)));
    put_digits b ~first (last - 1) (n / 10)
  end

(* Byte for byte what [Printf.sprintf "%s, %02d %s %04d %02d:%02d:%02d
   GMT"] writes: "Thu, 01 Jan 1970 00:00:00 GMT", 29 bytes for the years
   0-9999. Like [%04d], a year takes at least four characters, sign
   included, zero-filled after the sign. *)
let format t =
  let secs = int_of_float (floor t) in
  let days = if secs >= 0 then secs / 86400 else (secs - 86399) / 86400 in
  let rem = secs - (days * 86400) in
  let y, m, d = civil_from_days days in
  let dow = (((days mod 7) + 7) mod 7 + 4) mod 7 in
  let year_len = max 4 (if y < 0 then 1 + digits (-y) else digits y) in
  let b = Bytes.create (25 + year_len) in
  Bytes.blit_string day_names.(dow) 0 b 0 3;
  Bytes.blit_string ", " 0 b 3 2;
  put2 b 5 d;
  Bytes.set b 7 ' ';
  Bytes.blit_string month_names.(m - 1) 0 b 8 3;
  Bytes.set b 11 ' ';
  put_digits b ~first:12 (11 + year_len) (abs y);
  if y < 0 then Bytes.set b 12 '-';
  let p = 12 + year_len in
  Bytes.set b p ' ';
  put2 b (p + 1) (rem / 3600);
  Bytes.set b (p + 3) ':';
  put2 b (p + 4) (rem / 60 mod 60);
  Bytes.set b (p + 6) ':';
  put2 b (p + 7) (rem mod 60);
  Bytes.blit_string " GMT" 0 b (p + 9) 4;
  Bytes.unsafe_to_string b

let of_civil ~y ~month ~d ~hh ~mm ~ss =
  float_of_int ((days_from_civil y month d * 86400) + (hh * 3600) + (mm * 60) + ss)

let month_of_abbrev name =
  let rec go i =
    if i >= 12 then None else if month_names.(i) = name then Some (i + 1) else go (i + 1)
  in
  go 0

let month_index name =
  let rec go i = if i >= 12 then None else if month_names.(i) = name then Some (i + 1) else go (i + 1) in
  go 0

let parse s =
  (* "Thu, 01 Jan 1970 00:00:00 GMT" *)
  match String.split_on_char ' ' (String.trim s) with
  | [ _dow; dd; mon; yyyy; time; "GMT" ] -> (
    match
      ( int_of_string_opt dd,
        month_index mon,
        int_of_string_opt yyyy,
        String.split_on_char ':' time )
    with
    | Some d, Some m, Some y, [ hh; mm; ss ] -> (
      match (int_of_string_opt hh, int_of_string_opt mm, int_of_string_opt ss) with
      | Some h, Some mi, Some sec when h < 24 && mi < 60 && sec < 61 ->
        let days = days_from_civil y m d in
        Some (float_of_int ((days * 86400) + (h * 3600) + (mi * 60) + sec))
      | _ -> None)
    | _ -> None)
  | _ -> None
