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
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"
)

import (
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
	for round := 0; round < rounds; round++ {
		for i, s := range servers {
			qps[i] += closedLoop(s.srv.URL, 1500*time.Millisecond) / rounds
		}
	}
	for i, s := range servers {
		fmt.Printf("  %-8s %8.0f queries/sec\n", s.name, qps[i])
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

// closedLoop keeps 8 clients sending two-word queries back to back for
// d and returns the completed requests per second.
func closedLoop(url string, d time.Duration) float64 {
	words := []string{"ocean", "tree", "river", "cloud", "stone", "light", "wind", "fire",
		"earth", "snow", "rain", "storm", "leaf", "night", "star", "moon"}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	defer client.CloseIdleConnections()
	var done atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; time.Since(start) < d; i += 8 {
				q := words[i%len(words)] + "+" + words[i/len(words)%len(words)]
				resp, err := client.Get(url + wire.PathSearch + "?" + wire.ParamQuery + "=" + q)
				if err != nil {
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					done.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return float64(done.Load()) / time.Since(start).Seconds()
}
