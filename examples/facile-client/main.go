// Command facile-client demonstrates driving the Facile prediction service
// (cmd/facile-serve) over HTTP from Go: one single-block prediction
// (/v1/analyze at detail "prediction"), one batch, and the /v1/analyze
// bound breakdown with its sorted counterfactual speedup table.
//
// Start the server, then run the client:
//
//	go run ./cmd/facile-serve &
//	go run ./examples/facile-client -addr http://localhost:8629
//
// The wire types are plain JSON (docs/API.md); this client declares the
// subset of fields it reads.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"time"
)

type blockRequest struct {
	Code string `json:"code"`
	Arch string `json:"arch"`
	Mode string `json:"mode,omitempty"`
}

type prediction struct {
	CyclesPerIteration float64  `json:"cycles_per_iteration"`
	Bottlenecks        []string `json:"bottlenecks"`
	Instructions       []string `json:"instructions"`
}

type batchResponse struct {
	Results []struct {
		Prediction *prediction `json:"prediction"`
		Error      string      `json:"error"`
	} `json:"results"`
}

type analyzeRequest struct {
	blockRequest
	Detail string `json:"detail,omitempty"`
}

// analyzeResponse declares the subset of the /v1/analyze structured
// Analysis this client reads: the prediction, the ordered bound breakdown,
// and the counterfactual speedups — already sorted descending by the
// server, so rendering needs no map iteration.
type analyzeResponse struct {
	Prediction prediction `json:"prediction"`
	Bounds     []struct {
		Component  string  `json:"component"`
		Cycles     float64 `json:"cycles"`
		Bottleneck bool    `json:"bottleneck"`
	} `json:"bounds"`
	Speedups []struct {
		Component string  `json:"component"`
		Factor    float64 `json:"factor"`
	} `json:"speedups"`
}

func main() {
	addr := flag.String("addr", "http://localhost:8629", "facile-serve base URL")
	flag.Parse()
	client := &http.Client{Timeout: 10 * time.Second}

	// One block: the README quick-start pair (add rax,rbx; imul rax,rbx).
	var one analyzeResponse
	post(client, *addr+"/v1/analyze", analyzeRequest{
		blockRequest: blockRequest{Code: "4801d8480fafc3", Arch: "SKL", Mode: "loop"},
		Detail:       "prediction",
	}, &one)
	pred := one.Prediction
	fmt.Printf("single block on SKL: %.2f cycles/iteration, bottleneck %s\n",
		pred.CyclesPerIteration, pred.Bottlenecks[0])
	for i, inst := range pred.Instructions {
		fmt.Printf("  %2d  %s\n", i, inst)
	}

	// The same block across microarchitectures in one round trip; the
	// server fans the batch across the engine's worker pool.
	batch := struct {
		Requests    []blockRequest `json:"requests"`
		Concurrency int            `json:"concurrency,omitempty"`
	}{Concurrency: 4}
	archs := []string{"SNB", "HSW", "SKL", "ICL", "RKL"}
	for _, arch := range archs {
		batch.Requests = append(batch.Requests,
			blockRequest{Code: "4801d8480fafc3", Arch: arch, Mode: "loop"})
	}
	var results batchResponse
	post(client, *addr+"/v1/predict/batch", batch, &results)
	fmt.Println("\nacross generations:")
	for i, res := range results.Results {
		if res.Error != "" {
			fmt.Printf("  %-4s error: %s\n", archs[i], res.Error)
			continue
		}
		fmt.Printf("  %-4s %.2f cycles/iteration\n", archs[i], res.Prediction.CyclesPerIteration)
	}

	// What would help? One /v1/analyze round trip returns the structured
	// analysis: bound breakdown plus the counterfactual table of the
	// paper's Table 4, sorted most-profitable first.
	var ana analyzeResponse
	post(client, *addr+"/v1/analyze", analyzeRequest{
		blockRequest: blockRequest{Code: "4801d8480fafc3", Arch: "SKL", Mode: "loop"},
		Detail:       "speedups",
	}, &ana)
	fmt.Println("\nbound breakdown on SKL (pipeline order, * = bottleneck):")
	for _, b := range ana.Bounds {
		mark := " "
		if b.Bottleneck {
			mark = "*"
		}
		fmt.Printf("  %s %-11s %.2f\n", mark, b.Component, b.Cycles)
	}
	fmt.Println("\ncounterfactual speedups on SKL (most profitable first):")
	for _, sp := range ana.Speedups {
		if sp.Factor > 1 {
			fmt.Printf("  %-11s %.2fx\n", sp.Component, sp.Factor)
		}
	}
}

// post sends v as JSON and decodes the 200 response into out.
func post(client *http.Client, url string, v, out any) {
	body, err := json.Marshal(v)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatalf("%s: %v (is facile-serve running?)", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		log.Fatalf("%s: HTTP %d: %s", url, resp.StatusCode, msg)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatalf("%s: decoding response: %v", url, err)
	}
}
