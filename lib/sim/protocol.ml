type t = Push | Pull | Push_pull

let caller_informs_callee = function
  | Push | Push_pull -> true
  | Pull -> false

let callee_informs_caller = function
  | Pull | Push_pull -> true
  | Push -> false

let to_string = function
  | Push -> "push"
  | Pull -> "pull"
  | Push_pull -> "push-pull"

let all = [ Push; Pull; Push_pull ]
