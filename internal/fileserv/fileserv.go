// Package fileserv implements SNIPE file servers, sinks and sources
// (paper §3.2, §5.9).
//
// A file server "is a host which is capable of spawning file sinks,
// which accept data from SNIPE processes to be stored in files, and
// make that data available to other processes". Opening a file for
// writing spawns a sink that stores SNIPE messages; opening for
// reading spawns a source that streams the file to a SNIPE address.
// Files are named by LIFNs bound to replica locations in RC metadata,
// replicated across servers by replication daemons "according to local
// policy, redundancy requirements, and demand" (§3.2), and exported
// over HTTP for external programs. Fetch, List, Pull and a sink's
// commit are requests answered by replies (DESIGN "Request and reply");
// a stream to a third party (StreamTo) is pushed under TagFile.
package fileserv

import (
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"snipe/internal/comm"
	"snipe/internal/naming"
	"snipe/internal/rcds"
	"snipe/internal/task"
	"snipe/internal/xdr"
)

// File protocol operations, carried in TagFile messages and in replies.
const (
	opAppend uint8 = iota + 1 // sink write: append a chunk
	opCommit                  // sink close: finalize the file (reply opAck)
	opRead                    // source open: stream file to an address
	opData                    // source data chunk (server → reader)
	opList                    // list files (reply opListResp)
	opListResp
	opPull  // replicate: fetch file from another server (reply opAck)
	opAck   // generic op acknowledgement with status
	opFetch // source open: stream file back as replies (opData)
)

// Errors of the file service.
var (
	// ErrNotFound indicates a file the server does not hold.
	ErrNotFound = errors.New("fileserv: file not found")
	// ErrRemote wraps a server-reported failure.
	ErrRemote = errors.New("fileserv: server error")
)

// chunkSize bounds one file transfer message.
const chunkSize = 256 << 10

// pullTimeout bounds a server's fetch of a file it was asked to
// replicate, as a client's default bounds its own fetch.
const pullTimeout = 10 * time.Second

// fileMsg is the wire format of TagFile payloads and their replies, the
// request ID first as a reply's must be.
type fileMsg struct {
	ReqID uint64
	Op    uint8
	Name  string // file name on the server
	Dst   string // reader URN (opRead), source server URN (opPull)
	Data  []byte
	EOF   bool
	OK    bool
	Err   string
	Names []string // opListResp
}

func (f *fileMsg) encode() []byte {
	e := xdr.NewEncoder(64 + len(f.Data))
	e.PutUint64(f.ReqID)
	e.PutUint8(f.Op)
	e.PutString(f.Name)
	e.PutString(f.Dst)
	e.PutBytes(f.Data)
	e.PutBool(f.EOF)
	e.PutBool(f.OK)
	e.PutString(f.Err)
	e.PutStringSlice(f.Names)
	return e.Bytes()
}

// Per-field wire-decode caps handed to the xdr *Max decoders, so a
// corrupt length prefix fails fast instead of sizing an allocation.
const (
	maxWireName  = 4096     // file names, URNs, error strings
	maxWireChunk = 4 << 20  // one transfer chunk
	maxWireNames = 64 << 10 // listing entries, each capped at maxWireName
)

func decodeFileMsg(b []byte) (*fileMsg, error) {
	d := xdr.NewDecoder(b)
	f := &fileMsg{}
	var err error
	if f.ReqID, err = d.Uint64(); err != nil {
		return nil, err
	}
	if f.Op, err = d.Uint8(); err != nil {
		return nil, err
	}
	if f.Name, err = d.StringMax(maxWireName); err != nil {
		return nil, err
	}
	if f.Dst, err = d.StringMax(maxWireName); err != nil {
		return nil, err
	}
	if f.Data, err = d.BytesCopyMax(maxWireChunk); err != nil {
		return nil, err
	}
	if f.EOF, err = d.Bool(); err != nil {
		return nil, err
	}
	if f.OK, err = d.Bool(); err != nil {
		return nil, err
	}
	if f.Err, err = d.StringMax(maxWireName); err != nil {
		return nil, err
	}
	if f.Names, err = d.StringSliceMax(maxWireNames, maxWireName); err != nil {
		return nil, err
	}
	return f, nil
}

// ServiceName is the well-known replicated-service name under which
// file servers register.
const ServiceName = "fileserver"

// Server is one SNIPE file server.
type Server struct {
	name string
	urn  string
	cat  naming.Catalog
	ep   *comm.Endpoint

	mu      sync.Mutex
	files   map[string][]byte
	partial map[string][]byte // in-progress sink writes, keyed by writer+name
	closed  bool
	pulls   sync.WaitGroup // replica fetches in flight
}

// NewServer creates and registers a file server named name.
func NewServer(name string, cat naming.Catalog, listens []comm.Route) (*Server, error) {
	s := &Server{
		name:    name,
		urn:     naming.ProcessURN(name, "fileserver"),
		cat:     cat,
		files:   make(map[string][]byte),
		partial: make(map[string][]byte),
	}
	s.ep = comm.NewEndpoint(s.urn,
		comm.WithResolver(naming.NewResolver(cat)),
		comm.WithHandler(s.handle, task.TagFile))
	if len(listens) == 0 {
		listens = []comm.Route{{Transport: "tcp", Addr: "127.0.0.1:0"}}
	}
	var routes []comm.Route
	for _, l := range listens {
		route, err := s.ep.Listen(l.Spec())
		if err != nil {
			s.ep.Close()
			return nil, fmt.Errorf("fileserv: listen: %w", err)
		}
		routes = append(routes, route)
	}
	if err := naming.Register(cat, s.urn, routes); err != nil {
		s.ep.Close()
		return nil, err
	}
	cat.Add(naming.ServiceURN(ServiceName), rcds.AttrLocation, s.urn)
	// Advertise the access protocols (§5.2.2).
	cat.Add(s.urn, rcds.AttrProtocol, "snipe-msg")
	cat.Add(s.urn, rcds.AttrProtocol, "http")
	return s, nil
}

// URN returns the server's process URN.
func (s *Server) URN() string { return s.urn }

// Close deregisters and stops the server.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.cat.Remove(naming.ServiceURN(ServiceName), rcds.AttrLocation, s.urn)
	s.ep.Close() // no handler runs after this, and a pull's fetch ends
	s.pulls.Wait()
}

// Put stores a file directly (server-side API).
func (s *Server) Put(name string, data []byte) {
	cp := make([]byte, len(data))
	copy(cp, data)
	s.mu.Lock()
	s.files[name] = cp
	s.mu.Unlock()
	s.registerLocation(name)
}

// Get retrieves a file (server-side API).
func (s *Server) Get(name string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.files[name]
	return data, ok
}

// Files lists stored file names, sorted.
func (s *Server) Files() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.files))
	for n := range s.files {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// registerLocation binds the file's URN to this server in RC metadata.
func (s *Server) registerLocation(name string) {
	s.cat.Add(naming.FileURN(name), rcds.AttrLocation, s.urn)
}

func (s *Server) handle(m *comm.Message) {
	f, err := decodeFileMsg(m.Payload)
	if err != nil {
		return
	}
	switch f.Op {
	case opAppend:
		key := m.Src + "\x00" + f.Name
		s.mu.Lock()
		s.partial[key] = append(s.partial[key], f.Data...)
		s.mu.Unlock()

	case opCommit:
		key := m.Src + "\x00" + f.Name
		s.mu.Lock()
		data := s.partial[key]
		delete(s.partial, key)
		s.files[f.Name] = data
		s.mu.Unlock()
		s.registerLocation(f.Name)
		s.send(m.Src, comm.ReplyTag, &fileMsg{Op: opAck, ReqID: f.ReqID, Name: f.Name, OK: true})

	case opFetch:
		s.stream(m.Src, comm.ReplyTag, f.ReqID, f.Name)

	case opRead:
		s.stream(f.Dst, task.TagFile, f.ReqID, f.Name)

	case opList:
		s.send(m.Src, comm.ReplyTag, &fileMsg{Op: opListResp, ReqID: f.ReqID, OK: true, Names: s.Files()})

	case opPull:
		// Replicate: fetch the file from the named peer server. The fetch
		// runs beside the handler, so a peer replicating from this server
		// at the same moment is answered, not held behind it.
		requester := m.Src
		s.pulls.Add(1)
		go func() {
			defer s.pulls.Done()
			data, err := fetch(s.ep, f.Dst, f.Name, pullTimeout)
			ack := &fileMsg{Op: opAck, ReqID: f.ReqID, Name: f.Name, OK: err == nil}
			if err == nil {
				s.Put(f.Name, data)
			} else {
				ack.Err = err.Error()
			}
			s.send(requester, comm.ReplyTag, ack)
		}()
	}
}

func (s *Server) send(dst string, tag uint32, f *fileMsg) {
	s.ep.Send(dst, tag, f.encode())
}

// stream sends the named file to dst under tag in chunks, the last
// marked EOF, or one failed chunk if the server does not hold it.
func (s *Server) stream(dst string, tag uint32, reqID uint64, name string) {
	data, ok := s.Get(name)
	if !ok {
		s.send(dst, tag, &fileMsg{Op: opData, ReqID: reqID, Name: name, OK: false, Err: ErrNotFound.Error(), EOF: true})
		return
	}
	for off := 0; ; off += chunkSize {
		end := off + chunkSize
		last := false
		if end >= len(data) {
			end = len(data)
			last = true
		}
		s.send(dst, tag, &fileMsg{Op: opData, ReqID: reqID, Name: name, Data: data[off:end], EOF: last, OK: true})
		if last {
			return
		}
	}
}

// ServeHTTP exports the store over HTTP ("access to the files
// themselves is provided by ordinary file access protocols such as
// HTTP", §3.2): GET /files/<name>.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/files/")
	if name == "" || name == r.URL.Path {
		http.NotFound(w, r)
		return
	}
	data, ok := s.Get(name)
	if !ok {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data)
}
