type t = Cpu | Memory | Bandwidth | Running_time | Bytes_transferred

let all = [ Cpu; Memory; Bandwidth; Running_time; Bytes_transferred ]

let is_renewable = function
  | Cpu | Memory | Bandwidth -> true
  | Running_time | Bytes_transferred -> false

let to_string = function
  | Cpu -> "cpu"
  | Memory -> "memory"
  | Bandwidth -> "bandwidth"
  | Running_time -> "running-time"
  | Bytes_transferred -> "bytes-transferred"
