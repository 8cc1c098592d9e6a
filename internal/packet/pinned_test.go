package packet

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

// pinnedPackets builds one packet of every kind the builders, the apps
// and the workloads make, each under the name its bytes carry in
// testdata/pinned_packets.golden.
func pinnedPackets() []struct {
	name string
	p    *Packet
} {
	macC := MustMAC("02:00:00:00:00:0a")
	macS := MustMAC("02:00:00:00:00:0b")
	ipC := MustIPv4("10.0.0.1")
	ipS := MustIPv4("203.0.113.9")
	lease := MustIPv4("10.0.0.50")
	dhcpServer := MustIPv4("10.0.0.2")
	hostname := []DHCPOption{{Code: 12, Value: []byte("client-a")}}

	syn := NewTCP(macC, macS, ipC, ipS, 40000, 80, FlagSYN, nil)
	syn.IPv4.ID, syn.IPv4.Flags, syn.IPv4.TOS = 0x1234, 2, 0x10
	syn.TCP.Seq = 0x01020304
	ack := NewTCP(macC, macS, ipC, ipS, 40000, 80, FlagACK|FlagPSH, []byte("GET / HTTP/1.0\r\n\r\n"))
	ack.TCP.Seq, ack.TCP.Ack, ack.TCP.Urgent = 0x01020305, 0xa0b0c0d0, 7
	fin := NewTCP(macS, macC, ipS, ipC, 80, 40000, FlagFIN|FlagACK, nil)
	fin.IPv4.FragOff, fin.IPv4.TTL = 0x0123, 5
	echo := NewICMPEcho(macC, macS, ipC, ipS, 7, 1, false)
	echo.ICMP.Payload = []byte("ping")
	reply := NewTCP(macS, macC, ipS, ipC, PortFTPControl, 40000, FlagACK|FlagPSH, nil)
	reply.FTP = &FTPControl{ReplyCode: 227, ReplyText: "Entering Passive Mode (203,0,113,9,19,137)", DataIP: ipS, DataPort: 19<<8 | 137}

	return []struct {
		name string
		p    *Packet
	}{
		{"tcp-syn", syn},
		{"tcp-ack-payload", ack},
		{"tcp-fin", fin},
		{"udp-payload", NewUDP(macC, macS, ipC, ipS, 40000, 5000, []byte{1, 2, 3})},
		{"udp-empty", NewUDP(macC, macS, ipC, ipS, 40001, 5001, nil)},
		{"icmp-echo-request", echo},
		{"icmp-echo-reply", NewICMPEcho(macS, macC, ipS, ipC, 7, 1, true)},
		{"arp-request", NewARPRequest(macC, ipC, ipS)},
		{"arp-reply", NewARPReply(macS, ipS, macC, ipC)},
		{"dhcp-discover", NewDHCP(macC, BroadcastMAC, IPv4{}, BroadcastIPv4, &DHCPv4{
			Op: DHCPBootRequest, Xid: 42, MsgType: DHCPDiscover, ClientMAC: macC, Extra: hostname})},
		{"dhcp-offer", NewDHCP(macS, macC, dhcpServer, BroadcastIPv4, &DHCPv4{
			Op: DHCPBootReply, Xid: 42, MsgType: DHCPOffer, YourIP: lease, ServerIP: dhcpServer, ClientMAC: macC,
			ServerID: dhcpServer, LeaseSecs: 300})},
		{"dhcp-request", NewDHCP(macC, BroadcastMAC, IPv4{}, BroadcastIPv4, &DHCPv4{
			Op: DHCPBootRequest, Xid: 42, MsgType: DHCPRequest, ClientMAC: macC,
			RequestedIP: lease, ServerID: dhcpServer, Extra: hostname})},
		{"dhcp-ack", NewDHCP(macS, macC, dhcpServer, BroadcastIPv4, &DHCPv4{
			Op: DHCPBootReply, Xid: 42, MsgType: DHCPAck, ClientIP: lease, YourIP: lease, ServerIP: dhcpServer,
			ClientMAC: macC, ServerID: dhcpServer, LeaseSecs: 300})},
		{"dns-query", NewDNSQuery(macC, macS, ipC, ipS, 40002, 99, "example.com")},
		{"dns-response", NewDNSResponse(macS, macC, ipS, ipC, 40002, 99, "example.com", MustIPv4("93.184.216.34"))},
		{"ftp-port", NewFTPCommand(macC, macS, ipC, ipS, 40003, "PORT", "10,0,0,1,156,64")},
		{"ftp-command", NewFTPCommand(macC, macS, ipC, ipS, 40003, "RETR", "data.bin")},
		{"ftp-227-reply", reply},
		{"non-ip", &Packet{Eth: &Ethernet{Src: macC, Dst: BroadcastMAC, Type: 0x88cc}, Payload: []byte{2, 7, 4, 0, 1}}},
	}
}

// readPinned reads testdata/pinned_packets.golden: one "name hex" line
// per packet.
func readPinned(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open("testdata/pinned_packets.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pinned := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, hexBytes, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		pinned[name] = hexBytes
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return pinned
}

// TestPacketBytesPinned: every kind of packet encodes to its pinned
// bytes, and the pinned bytes decode back to the builder's packet. The
// decoded transport payload of a packet with an L7 layer holds that
// layer's bytes, which the builder leaves to the L7 layer; the
// comparison clears it.
func TestPacketBytesPinned(t *testing.T) {
	pinned := readPinned(t)
	kinds := pinnedPackets()
	if len(pinned) != len(kinds) {
		t.Errorf("golden file pins %d packets, the test builds %d", len(pinned), len(kinds))
	}
	for _, k := range kinds {
		want, ok := pinned[k.name]
		if !ok {
			t.Errorf("%s: not in the golden file", k.name)
			continue
		}
		enc, err := k.p.Encode()
		if err != nil {
			t.Errorf("%s: encode: %v", k.name, err)
			continue
		}
		if got := hex.EncodeToString(enc); got != want {
			t.Errorf("%s encoding changed\ngot:  %s\nwant: %s", k.name, got, want)
		}
		raw, err := hex.DecodeString(want)
		if err != nil {
			t.Fatalf("%s: golden hex: %v", k.name, err)
		}
		q, err := Decode(raw)
		if err != nil {
			t.Errorf("%s: decode of pinned bytes: %v", k.name, err)
			continue
		}
		if q.DHCP != nil || q.DNS != nil || q.FTP != nil {
			if q.TCP != nil {
				q.TCP.Payload = nil
			}
			if q.UDP != nil {
				q.UDP.Payload = nil
			}
		}
		if !reflect.DeepEqual(q, k.p) {
			t.Errorf("%s: pinned bytes decode to %s, not the builder's %s", k.name, fmtPacket(q), fmtPacket(k.p))
		}
		if re, err := q.Encode(); err != nil || !bytes.Equal(re, raw) {
			t.Errorf("%s: decode/re-encode changed bytes (err %v)", k.name, err)
		}
	}
}

// fmtPacket renders every layer of p for a failure message.
func fmtPacket(p *Packet) string {
	return fmt.Sprintf("eth=%+v arp=%+v ip=%+v icmp=%+v tcp=%+v udp=%+v dhcp=%+v dns=%+v ftp=%+v payload=%x",
		p.Eth, p.ARP, p.IPv4, p.ICMP, p.TCP, p.UDP, p.DHCP, p.DNS, p.FTP, p.Payload)
}
