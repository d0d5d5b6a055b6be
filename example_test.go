package bnbnet_test

import (
	"fmt"
	"log"
	"math/rand"

	bnbnet "repro"
)

// ExampleNewBNB routes one permutation through the BNB network.
func ExampleNewBNB() {
	net, err := bnbnet.NewBNB(3, 8) // N = 8 inputs, 8-bit payloads
	if err != nil {
		log.Fatal(err)
	}
	// Input i carries destination perm[i].
	permutation := bnbnet.Perm{5, 2, 7, 0, 6, 1, 4, 3}
	out, err := net.RoutePerm(permutation)
	if err != nil {
		log.Fatal(err)
	}
	for j := 0; j < 4; j++ {
		fmt.Printf("output %d <- input %d\n", j, out[j].Data)
	}
	// Output:
	// output 0 <- input 3
	// output 1 <- input 5
	// output 2 <- input 1
	// output 3 <- input 7
}

// ExampleBNB_Compile establishes a circuit once and streams two frames
// over it: Compile runs the self-routing control plane and records every
// switch state, and each Replay only follows the recorded wires.
func ExampleBNB_Compile() {
	net, err := bnbnet.NewBNB(2, 16)
	if err != nil {
		log.Fatal(err)
	}
	circuit := bnbnet.Perm{2, 0, 3, 1}
	plan, err := net.Compile(circuit)
	if err != nil {
		log.Fatal(err)
	}
	out := make([]bnbnet.Word, 4)
	for frame := 0; frame < 2; frame++ {
		words := make([]bnbnet.Word, 4)
		for i := range words {
			words[i] = bnbnet.Word{Addr: circuit[i], Data: uint64(100*frame + i)}
		}
		if err := net.Replay(plan, out, words); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("frame %d at outputs: %d %d %d %d\n",
			frame, out[0].Data, out[1].Data, out[2].Data, out[3].Data)
	}
	// Output:
	// frame 0 at outputs: 1 3 0 2
	// frame 1 at outputs: 101 103 100 102
}

// ExampleTable2 prints the paper's delay comparison at N = 1024.
func ExampleTable2() {
	rows, err := bnbnet.Table2(10)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range rows {
		fmt.Printf("%-10s %.0f\n", r.Network, r.Delay)
	}
	// Output:
	// Batcher    550
	// Koppelman  571
	// BNB        475
}

// ExampleHeadlineRatios evaluates the abstract's claims at a large order.
func ExampleHeadlineRatios() {
	hw, delay, err := bnbnet.HeadlineRatios(20, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hardware ratio %.2f (-> 1/3), delay ratio %.2f (-> 2/3)\n", hw, delay)
	// Output:
	// hardware ratio 0.42 (-> 1/3), delay ratio 0.74 (-> 2/3)
}

// ExampleVerifyNetwork runs the conformance battery on a fresh network.
func ExampleVerifyNetwork() {
	net, err := bnbnet.New("batcher", 3)
	if err != nil {
		log.Fatal(err)
	}
	report, err := bnbnet.VerifyNetwork(net, bnbnet.VerifyOptions{RandomTrials: 10, BPCTrials: 5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ok=%v exhaustive=%v\n", report.OK(), report.ExhaustiveDone)
	// Output:
	// ok=true exhaustive=true
}

// ExampleCompletePerm pads a partial batch the way the switch fabric does.
func ExampleCompletePerm() {
	p, err := bnbnet.CompletePerm([]int{3, -1, 0, -1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(p)
	// Output:
	// [3 1 0 2]
}

// ExampleNewFabric simulates permutation traffic over a BNB fabric.
func ExampleNewFabric() {
	net, err := bnbnet.NewBNB(4, 0)
	if err != nil {
		log.Fatal(err)
	}
	sw, err := bnbnet.NewFabric(net)
	if err != nil {
		log.Fatal(err)
	}
	stats, err := sw.Run(bnbnet.PermutationTraffic{Load: 1.0}, 100, rand.New(rand.NewSource(1)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("throughput %.2f, mean wait %.1f\n", stats.Throughput(16), stats.MeanWait())
	// Output:
	// throughput 1.00, mean wait 0.0
}
