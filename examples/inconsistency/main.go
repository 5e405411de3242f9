// Inconsistency: replay the paper's new inconsistency scenario (Fig. 3) —
// two well-placed bit disturbances — against all three protocol variants.
// Standard CAN and MinorCAN suffer an inconsistent message omission with a
// perfectly correct transmitter; MajorCAN delivers everywhere.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/scenario"
)

func main() {
	for _, policy := range []node.EOFPolicy{
		core.NewStandard(),
		core.NewMinorCAN(),
		core.MustMajorCAN(5),
	} {
		out, err := scenario.NewScenario(policy)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("==", out.Name, "==")
		fmt.Println(out.Summary())
		if tl := out.Timeline(); tl != "" {
			fmt.Println()
			fmt.Print(tl)
		}
		fmt.Println()
	}
	fmt.Println("legend: d/r sampled level, D driving dominant, R driving recessive in-frame,")
	fmt.Println("        ! disturbed sample, . idle; station 0 = transmitter, X1/X2 and Y3/Y4 = receiver sets")
}
