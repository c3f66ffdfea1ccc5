module banks/bench

go 1.24

require banks v0.0.0

replace banks => ../
