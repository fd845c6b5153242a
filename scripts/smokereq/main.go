// Command smokereq prints request bodies for soteriad's analyze and
// batch endpoints, built around the paper's Smoke-Alarm app. The CI
// smoke script feeds them to a running soteriad to check the
// serve-and-cache, backpressure, and restart-resume paths end to end.
//
//	smokereq                 analyze body for the Smoke-Alarm app
//	smokereq -variant 3      same app under a distinct content address
//	smokereq -async          ask for 202 + poll instead of waiting
//	smokereq -idem KEY       attach an idempotency key
//	smokereq -batch 20       batch body with 20 distinct variant items
//	                         (a slow job: items run sequentially)
//	smokereq -timings        ask for the span tree in the response
//	smokereq -groovy         print the raw Groovy source instead of a
//	                         request body (for soteria -explain-timing)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"github.com/soteria-analysis/soteria/internal/api"
	"github.com/soteria-analysis/soteria/internal/paperapps"
)

// variantSource derives a distinct content address per variant: the
// leading comment changes the hashed bytes, not the analysis.
func variantSource(n int) string {
	if n == 0 {
		return paperapps.SmokeAlarm
	}
	return fmt.Sprintf("// smoke variant %d\n%s", n, paperapps.SmokeAlarm)
}

func main() {
	var (
		batch   = flag.Int("batch", 0, "emit a /v1/batch body with this many variant items (0 = single analyze)")
		variant = flag.Int("variant", 0, "offset the content address so the request cannot hit the store")
		async   = flag.Bool("async", false, "request async submission (202 + poll URL)")
		idem    = flag.String("idem", "", "idempotency key to attach")
		timings = flag.Bool("timings", false, "request the span tree in the response records")
		groovy  = flag.Bool("groovy", false, "print the raw Groovy source instead of a request body")
	)
	flag.Parse()

	if *groovy {
		fmt.Print(variantSource(*variant))
		return
	}

	var body any
	if *batch > 0 {
		req := api.BatchRequest{Async: *async, IdempotencyKey: *idem, Timings: *timings}
		for i := 0; i < *batch; i++ {
			req.Items = append(req.Items, api.BatchRequestItem{
				Key:  fmt.Sprintf("item-%d", i),
				Apps: []api.App{{Name: fmt.Sprintf("smoke-alarm-%d", i), Source: variantSource(*variant + i)}},
			})
		}
		body = req
	} else {
		body = api.AnalyzeRequest{
			Name: "smoke-alarm", Source: variantSource(*variant),
			Async: *async, IdempotencyKey: *idem, Timings: *timings,
		}
	}

	data, err := json.Marshal(body)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Stdout.Write(data)
}
