// MUTANT (ctrlcopy, from examples/webservice): the service's loop controller is copied out from under live handlers: a possibly locked mutex is duplicated and the level read is a fork's.
//
// The webservice example ties the whole system together the way the
// paper's abstract frames it: a web service under a Service Level
// Agreement. It starts two copies of the search service in-process — the
// precise base version and the Green-approximated version under a 2%
// result-change SLA — measures each one's sustainable throughput with a
// closed-loop load, and prints the operational stats the service exposes.
// Approximation is what lets the same machine answer more queries per
// second (the paper's headline Bing Search result: +21% QPS, -14% energy,
// 0.27% QoS loss).
//
// Run it with:
//
//	go run ./examples/webservice
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"time"
)

import (
	"green/internal/loadgen"
	"green/internal/serve"
	"green/internal/wire"
)

func main() {
	fmt.Println("building corpus and calibrating...")
	const corpus = 150000
	precise, err := serve.New(serve.Config{Seed: 42, SLA: 0.02, CorpusDocs: corpus, Disabled: true})
	if err != nil {
		log.Fatal(err)
	}
	approx, err := serve.New(serve.Config{Seed: 42, SLA: 0.02, CorpusDocs: corpus})
	if err != nil {
		log.Fatal(err)
	}
	ctl := *approx.Loop() // want "copies a Loop by value"
	fmt.Printf("green service:   M = %.0f documents/query (2%% SLA)\n", ctl.Level())
	fmt.Printf("precise service: approximation disabled (full scans)\n\n")

	servers := []struct {
		name string
		srv  *httptest.Server
	}{
		{"precise", httptest.NewServer(precise.Handler())},
		{"green", httptest.NewServer(approx.Handler())},
	}
	defer func() {
		for _, s := range servers {
			s.srv.Close()
		}
	}()

	// Interleave multiple measurement rounds per server so transient
	// machine noise does not decide the comparison.
	const rounds = 3
	fmt.Printf("closed-loop capacity (8 workers, %d interleaved rounds):\n", rounds)
	var qps [2]float64
	var p50, p99 [2]time.Duration
	for round := 0; round < rounds; round++ {
		for i, s := range servers {
			res, err := loadgen.Run(context.Background(), loadgen.Config{
				BaseURL:  s.srv.URL,
				Closed:   true,
				Workers:  8,
				Duration: 1500 * time.Millisecond,
				Deadline: 50 * time.Millisecond,
				Seed:     7 + int64(round),
			})
			if err != nil {
				log.Fatal(err)
			}
			qps[i] += res.AchievedQPS / rounds
			p50[i] += res.P50 / rounds
			p99[i] += res.P99 / rounds
		}
	}
	for i, s := range servers {
		fmt.Printf("  %-8s %8.0f queries/sec  (p50 %v, p99 %v)\n",
			s.name, qps[i],
			p50[i].Round(time.Microsecond), p99[i].Round(time.Microsecond))
	}
	if qps[0] > 0 {
		fmt.Printf("\nthroughput improvement from approximation: %+.1f%%\n",
			100*(qps[1]/qps[0]-1))
	}

	for _, s := range servers {
		resp, err := http.Get(s.srv.URL + wire.PathStats)
		if err != nil {
			log.Fatal(err)
		}
		var st wire.Stats
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			log.Fatal(err)
		}
		resp.Body.Close()
		fmt.Printf("%s /stats: queries=%d monitored=%d mean-monitored-loss=%.3f%% work-saved=%.1f%%\n",
			s.name, st.Queries, st.Monitored,
			100*st.MeanMonitoredLoss, 100*st.WorkSavedFraction)
	}
}
