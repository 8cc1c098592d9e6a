package packet

import "testing"

// benchSink keeps the compiler from discarding a benchmarked decode.
var benchSink *Packet

// BenchmarkPacketCodec times the codec per frame on the three frame
// shapes the workloads carry: a TCP ACK with a short payload, a UDP
// datagram and a DHCP request with options. Decode runs through a
// reused Arena, as the collector's batches do; encode appends to a warm
// buffer, as the exporter does.
func BenchmarkPacketCodec(b *testing.B) {
	frames := []struct {
		name string
		p    *Packet
	}{
		{"tcp", NewTCP(macA, macB, ipA, ipB, 40000, 80, FlagACK, []byte("0123456789abcdef"))},
		{"udp", NewUDP(macA, macB, ipA, ipB, 40000, 5000, []byte{9, 9, 9})},
		{"dhcp", NewDHCP(macA, BroadcastMAC, IPv4{}, BroadcastIPv4, &DHCPv4{
			Op: DHCPBootRequest, Xid: 42, MsgType: DHCPRequest, ClientMAC: macA,
			RequestedIP: MustIPv4("10.0.0.50"), ServerID: MustIPv4("10.0.0.2"),
		})},
	}
	for _, f := range frames {
		frame, err := f.p.Encode()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(f.name+"/decode", func(b *testing.B) {
			var a Arena
			b.ReportAllocs()
			b.SetBytes(int64(len(frame)))
			for i := 0; i < b.N; i++ {
				a.Reset()
				if benchSink, err = a.Decode(frame); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(f.name+"/encode", func(b *testing.B) {
			buf := make([]byte, 0, 2*len(frame))
			b.ReportAllocs()
			b.SetBytes(int64(len(frame)))
			for i := 0; i < b.N; i++ {
				if buf, err = f.p.AppendEncode(buf[:0]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
