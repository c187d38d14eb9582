// Webserver example: the node.js-style HTTP server of paper §4.3.
//
// It serves the static 148-byte response on an EbbRT backend, measures
// latency with the wrk-style closed-loop client, and prints Table 2's
// comparison against the Linux baseline - the registry's table2
// experiment, which is also `go run ./cmd/ebbrt run table2`.
//
//	go run ./examples/webserver
package main

import (
	"fmt"

	"ebbrt/internal/experiments"
)

func main() {
	for _, s := range experiments.Specs {
		if s.Name == "table2" {
			fmt.Println(s.Doc)
			fmt.Print(s.Run(experiments.Full, nil).Text)
		}
	}
}
