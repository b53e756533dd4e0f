// Sensitivity runs a miniature of the paper's Figure 5: throughput as
// the number of compute processors varies, for the ra/rn/rb/rc patterns
// under both file systems. Disk-directed I/O is flat — it never depends
// on how many CPs the data is scattered over — while traditional caching
// starves with few CPs on 1-block cyclic records.
//
//	go run ./examples/sensitivity
package main

import (
	"fmt"
	"log"

	"ddio"
)

func main() {
	opt := ddio.DefaultOptions()
	opt.Trials = 1
	opt.FileBytes = 2 * ddio.MiB
	opt.Progress = func(line string) { fmt.Println("  ", line) }

	results, err := ddio.Figure(opt, "5")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Println(results[0].Table.Format())
}
