type t = string

let of_string s = s

let to_string t = t

let length = String.length
