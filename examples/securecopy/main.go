// Securecopy: an rcp-like file transfer over an impaired datagram
// network, protected by FBS.
//
// The example demonstrates the properties that motivated the paper:
//
//   - datagram semantics survive: lost, duplicated, reordered and
//     corrupted datagrams never require renegotiating security — the
//     application-level retransmit protocol just resends, and every
//     retransmission is independently processable;
//   - corruption is caught by the flow MAC and surfaces as loss;
//   - the whole transfer is one flow with one key derivation.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"log"
	"time"

	fbs "fbs"
)

const (
	chunkSize  = 1024
	fileSize   = 256 * 1024
	maxRetries = 200
)

func main() {
	domain, err := fbs.NewDomain("securecopy")
	if err != nil {
		log.Fatal(err)
	}
	// A nasty network: 10% loss, 5% duplication, 10% reordering, 5%
	// corruption.
	network := fbs.NewNetwork(fbs.Impairments{
		LossProb: 0.10, DupProb: 0.05, ReorderProb: 0.10, CorruptProb: 0.05, Seed: 42,
	})
	sender, err := domain.NewEndpoint("src-host", network)
	if err != nil {
		log.Fatal(err)
	}
	defer sender.Close()
	receiver, err := domain.NewEndpoint("dst-host", network, func(c *fbs.Config) {
		c.EnableReplayCache = true // suppress duplicates below the app
	})
	if err != nil {
		log.Fatal(err)
	}
	defer receiver.Close()

	// The "file".
	file := make([]byte, fileSize)
	for i := range file {
		file[i] = byte(i * 2654435761)
	}
	fmt.Printf("copying %d KB over a network with 10%% loss, 5%% corruption...\n", fileSize/1024)

	// Receiver: reassemble chunks, ack each one.
	chunks := make([][]byte, (fileSize+chunkSize-1)/chunkSize)
	done := make(chan []byte)
	go func() {
		got := 0
		for got < len(chunks) {
			dg, err := receiver.Receive()
			if err != nil {
				if err == fbs.ErrClosed {
					return
				}
				continue // rejected datagram: corruption shows up here
			}
			seq := binary.BigEndian.Uint32(dg.Payload[:4])
			if int(seq) < len(chunks) && chunks[seq] == nil {
				chunks[seq] = append([]byte(nil), dg.Payload[4:]...)
				got++
			}
			// Ack (also FBS-protected, in the reverse flow).
			var ack [4]byte
			binary.BigEndian.PutUint32(ack[:], seq)
			receiver.SendTo("src-host", ack[:], false)
		}
		done <- bytes.Join(chunks, nil)
	}()

	// A dedicated reader turns the sender's incoming (FBS-verified) acks
	// into a channel.
	ackCh := make(chan uint32, 1024)
	go func() {
		for {
			dg, err := sender.Receive()
			if err == fbs.ErrClosed {
				return
			}
			if err == nil && len(dg.Payload) == 4 {
				ackCh <- binary.BigEndian.Uint32(dg.Payload)
			}
		}
	}()

	// Sender: stop-and-wait with retry keeps the example readable; the
	// flow key amortises identically under any window.
	start := time.Now()
	for seq := 0; seq*chunkSize < fileSize; seq++ {
		lo, hi := seq*chunkSize, (seq+1)*chunkSize
		if hi > fileSize {
			hi = fileSize
		}
		payload := make([]byte, 4+hi-lo)
		binary.BigEndian.PutUint32(payload[:4], uint32(seq))
		copy(payload[4:], file[lo:hi])
		acked := false
		for try := 0; try < maxRetries && !acked; try++ {
			if err := sender.SendTo("dst-host", payload, true); err != nil {
				log.Fatal(err)
			}
			network.Flush()
			timeout := time.After(20 * time.Millisecond)
		wait:
			for {
				select {
				case a := <-ackCh:
					if a == uint32(seq) {
						acked = true
						break wait
					}
				case <-timeout:
					break wait // retransmit
				}
			}
		}
		if !acked {
			log.Fatalf("chunk %d never acknowledged after %d tries", seq, maxRetries)
		}
	}

	result := <-done
	elapsed := time.Since(start)
	if sha256.Sum256(result) != sha256.Sum256(file) {
		log.Fatal("file corrupted in transit — FBS should have prevented this")
	}
	fmt.Printf("file intact after transfer (%v)\n", elapsed)

	sm := sender.Snapshot()
	rm := receiver.Snapshot()
	ns := network.Stats()
	fmt.Printf("\nnetwork: %d sent, %d lost, %d corrupted, %d duplicated\n",
		ns.Sent, ns.Lost, ns.Corrupted, ns.Duplicated)
	fmt.Printf("receiver: %d accepted, %d rejected by MAC (corruption), %d duplicates suppressed\n",
		rm.Received, rm.Drops[fbs.DropBadMAC], rm.Drops[fbs.DropReplay])
	fmt.Printf("sender: %d datagrams over %d flow(s); %d DH exponentiation(s) total\n",
		sm.Sent, sm.FAM.FlowsCreated, sm.Keying.MasterKeyComputes)
}
