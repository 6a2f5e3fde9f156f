// Whiteboard: application-layer flows with a custom security flow
// policy.
//
// The paper's opening argument is that flows exist at every layer: "at
// the application layer, datagrams belonging to the same application
// 'conversation' constitute a flow". This example is a shared-whiteboard
// session (the paper's own example of a UDP conversation) among three
// principals where each drawing surface is its own conversation. A
// custom Selector maps datagrams to flows by (peer, surface), so each
// surface gets its own sfl and flow key — compromising one surface's key
// exposes nothing about the others.
package main

import (
	"fmt"
	"log"
	"time"

	fbs "fbs"
)

// surface identifiers: each is an application conversation.
const (
	surfaceDiagram = iota + 1
	surfaceNotes
	surfaceChat
)

var surfaceNames = map[uint64]string{
	surfaceDiagram: "diagram",
	surfaceNotes:   "notes",
	surfaceChat:    "chat",
}

// surfaceSelector classifies by destination principal and surface id
// (first payload byte): the application-layer flow policy.
func surfaceSelector(dg fbs.Datagram) fbs.FlowID {
	id := fbs.FlowID{Src: dg.Source, Dst: dg.Destination}
	if len(dg.Payload) > 0 {
		id.Aux = uint64(dg.Payload[0])
	}
	return id
}

func main() {
	domain, err := fbs.NewDomain("whiteboard")
	if err != nil {
		log.Fatal(err)
	}
	network := fbs.NewNetwork(fbs.Impairments{})

	users := []fbs.Address{"ann", "ben", "cas"}
	eps := make(map[fbs.Address]*fbs.Endpoint)
	for _, u := range users {
		ep, err := domain.NewEndpoint(u, network, func(c *fbs.Config) {
			c.Selector = surfaceSelector
			c.Policy = fbs.ThresholdPolicy{Threshold: 5 * time.Minute}
		})
		if err != nil {
			log.Fatal(err)
		}
		defer ep.Close()
		eps[u] = ep
	}

	// Ann draws on the diagram and types chat; Ben writes notes. Every
	// (sender, receiver, surface) triple becomes a distinct flow.
	type msg struct {
		from, to fbs.Address
		surface  byte
		text     string
	}
	script := []msg{
		{"ann", "ben", surfaceDiagram, "rect 10,10 80,40"},
		{"ann", "cas", surfaceDiagram, "rect 10,10 80,40"},
		{"ann", "ben", surfaceChat, "does that look right?"},
		{"ben", "ann", surfaceChat, "move it left a bit"},
		{"ann", "ben", surfaceDiagram, "move rect -5,0"},
		{"ann", "cas", surfaceDiagram, "move rect -5,0"},
		{"ben", "ann", surfaceNotes, "decision: box goes left"},
		{"ben", "cas", surfaceNotes, "decision: box goes left"},
	}
	for _, m := range script {
		payload := append([]byte{m.surface}, m.text...)
		if err := eps[m.from].SendTo(m.to, payload, true); err != nil {
			log.Fatal(err)
		}
		got, err := eps[m.to].Receive()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s -> %s [%s]: %q\n", m.from, m.to, surfaceNames[uint64(got.Payload[0])], got.Payload[1:])
	}

	// Each sender's FAM shows one flow per (destination, surface) pair
	// it used — the application conversations, not the host pairs.
	fmt.Println()
	for _, u := range users {
		s := eps[u].Snapshot().FAM
		if s.Lookups == 0 {
			continue
		}
		fmt.Printf("%s: %d datagrams classified into %d application flows\n",
			u, s.Lookups, s.FlowsCreated)
	}
	fmt.Println("\n(ann->ben diagram, ann->ben chat, ann->cas diagram, ... — one key each;")
	fmt.Println(" a host-pair scheme would have protected all of them under a single key)")
}
