// Command text2sql runs the §7.7 agentic AI workflow on the real
// platform: parse a natural-language question, prompt an LLM service
// over HTTP for a SQL query, run the query against a database service
// over HTTP, and format the answer. The LLM and database are mock
// services on loopback (the LLM's inference delay is configurable).
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"dandelion/internal/model/experiments"
)

func main() {
	delay := flag.Duration("llm-delay", 150*time.Millisecond,
		"simulated LLM inference time (the paper's Gemma-3-4b on an H100 takes ~1.2s)")
	flag.Parse()

	res, err := experiments.RunText2SQL(*delay)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Question: What is the total amount per region?")
	fmt.Println("Answer:")
	fmt.Println(res.Answer)
	fmt.Println()
	fmt.Println("Step latency breakdown (paper: 221/1238/207/136/213 ms):")
	var total float64
	for i, s := range res.Steps {
		fmt.Printf("  %-24s %8.2f ms\n", s, res.Millis[i])
		total += res.Millis[i]
	}
	fmt.Printf("  %-24s %8.2f ms\n", "total", total)
}
