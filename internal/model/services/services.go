// Package services provides the in-process cloud services that Dandelion
// applications talk to over HTTP in the paper's evaluation: an S3-style
// object store (SSB data ingest, §7.7), an authentication service and
// log-shard servers (the distributed log-processing app of Figure 3), a
// mock LLM inference endpoint and a SQL database service (the Text2SQL
// agentic workflow of §7.7).
//
// Every service is a real net/http server on a loopback ephemeral port,
// so the HTTP communication function exercises genuine sockets.
package services

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"dandelion/internal/sqlmini"
)

// Server wraps one HTTP service bound to a loopback ephemeral port.
type Server struct {
	ln  net.Listener
	srv *http.Server
	url string
}

func serve(handler http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("services: listen: %w", err)
	}
	s := &Server{
		ln:  ln,
		srv: &http.Server{Handler: handler},
		url: "http://" + ln.Addr().String(),
	}
	go s.srv.Serve(ln) //nolint:errcheck // closed on shutdown
	return s, nil
}

// URL is the service base URL (http://127.0.0.1:port).
func (s *Server) URL() string { return s.url }

// Close shuts the service down.
func (s *Server) Close() error { return s.srv.Close() }

// ---------------------------------------------------------------------
// Object store (S3 stand-in)

// ObjectStore is a minimal S3-style blob service: PUT /bucket/key stores
// the body, GET /bucket/key retrieves it, GET /bucket/ lists keys.
type ObjectStore struct {
	mu      sync.RWMutex
	objects map[string][]byte // "bucket/key" -> data
	// GetCount counts GET hits, for cost accounting à la Athena's
	// bytes-scanned billing.
	getBytes int64
}

// NewObjectStore creates an empty store.
func NewObjectStore() *ObjectStore {
	return &ObjectStore{objects: map[string][]byte{}}
}

// Put stores an object directly (bootstrap path).
func (o *ObjectStore) Put(bucket, key string, data []byte) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.objects[bucket+"/"+key] = append([]byte(nil), data...)
}

// Get retrieves an object directly.
func (o *ObjectStore) Get(bucket, key string) ([]byte, bool) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	d, ok := o.objects[bucket+"/"+key]
	return d, ok
}

// BytesServed reports cumulative bytes served over GET.
func (o *ObjectStore) BytesServed() int64 {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.getBytes
}

// ServeHTTP implements the REST surface.
func (o *ObjectStore) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := strings.TrimPrefix(r.URL.Path, "/")
	switch r.Method {
	case http.MethodPut, http.MethodPost:
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, "read error", http.StatusBadRequest)
			return
		}
		if !strings.Contains(path, "/") {
			http.Error(w, "want /bucket/key", http.StatusBadRequest)
			return
		}
		o.mu.Lock()
		o.objects[path] = body
		o.mu.Unlock()
		w.WriteHeader(http.StatusCreated)
	case http.MethodGet:
		if strings.HasSuffix(path, "/") || !strings.Contains(path, "/") {
			// List keys under the bucket prefix.
			prefix := strings.TrimSuffix(path, "/") + "/"
			o.mu.RLock()
			var keys []string
			for k := range o.objects {
				if strings.HasPrefix(k, prefix) {
					keys = append(keys, strings.TrimPrefix(k, prefix))
				}
			}
			o.mu.RUnlock()
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(keys)
			return
		}
		o.mu.Lock()
		d, ok := o.objects[path]
		if ok {
			o.getBytes += int64(len(d))
		}
		o.mu.Unlock()
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Write(d)
	case http.MethodDelete:
		o.mu.Lock()
		delete(o.objects, path)
		o.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// StartObjectStore serves the store on a loopback port.
func StartObjectStore(o *ObjectStore) (*Server, error) { return serve(o) }

// ---------------------------------------------------------------------
// Auth service + log shards (Figure 3 application)

// AuthService validates access tokens and returns the log-shard
// endpoints the token is authorized for, as a JSON array of URLs.
type AuthService struct {
	mu     sync.RWMutex
	tokens map[string][]string // token -> endpoints
}

// NewAuthService creates an auth service with no registered tokens.
func NewAuthService() *AuthService {
	return &AuthService{tokens: map[string][]string{}}
}

// Grant authorizes token for the given endpoints.
func (a *AuthService) Grant(token string, endpoints []string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.tokens[token] = append([]string(nil), endpoints...)
}

// ServeHTTP handles POST /auth with the token as the request body.
func (a *AuthService) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	token := strings.TrimSpace(string(body))
	if token == "" {
		token = strings.TrimSpace(r.URL.Query().Get("token"))
	}
	a.mu.RLock()
	eps, ok := a.tokens[token]
	a.mu.RUnlock()
	if !ok {
		http.Error(w, "invalid token", http.StatusUnauthorized)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(eps)
}

// StartAuthService serves the auth service on a loopback port.
func StartAuthService(a *AuthService) (*Server, error) { return serve(a) }

// LogShard serves a slice of log lines at GET /logs.
type LogShard struct {
	Name  string
	Lines []string
}

// ServeHTTP returns the shard's log lines, one per line.
func (l *LogShard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintf(w, "# shard %s\n", l.Name)
	for _, ln := range l.Lines {
		fmt.Fprintln(w, ln)
	}
}

// StartLogShard serves one shard on a loopback port.
func StartLogShard(l *LogShard) (*Server, error) { return serve(l) }

// ---------------------------------------------------------------------
// Mock LLM inference service (Text2SQL)

// LLMService emulates a Text2SQL model served over REST: POST /v1/generate
// with a prompt containing "Schema: ..." and "Question: ..." lines
// returns a SQL query. The "model" is a rule-based translator — the
// point is exercising the workflow's communication path, not language
// understanding.
type LLMService struct {
	// InferenceDelay is added before responding, standing in for model
	// forward passes (the paper's Gemma-3-4b-it on an H100 takes
	// ~1.2 s; keep this small in tests).
	InferenceDelay time.Duration

	mu       sync.Mutex
	requests int
}

// Requests reports how many generations were served.
func (l *LLMService) Requests() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.requests
}

// ServeHTTP handles generation requests.
func (l *LLMService) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	l.mu.Lock()
	l.requests++
	l.mu.Unlock()
	if l.InferenceDelay > 0 {
		time.Sleep(l.InferenceDelay)
	}
	sql := Text2SQL(string(body))
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]string{"completion": "```sql\n" + sql + "\n```"})
}

// Text2SQL is the rule-based prompt→SQL translation shared by the mock
// service and tests. It understands a small family of analytic question
// shapes over a single table.
func Text2SQL(prompt string) string {
	table := "t"
	for _, line := range strings.Split(prompt, "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "Schema:") {
			schema := strings.TrimSpace(strings.TrimPrefix(line, "Schema:"))
			if i := strings.Index(schema, "("); i > 0 {
				table = strings.TrimSpace(schema[:i])
			}
		}
	}
	q := strings.ToLower(prompt)
	grouped := strings.Contains(q, "per ") || strings.Contains(q, "by ")
	switch {
	case grouped && (strings.Contains(q, "total") || strings.Contains(q, "sum")):
		col := guessGroup(q)
		return "SELECT " + col + ", SUM(" + guessColumn(q) + ") FROM " + table + " GROUP BY " + col
	case grouped:
		col := guessGroup(q)
		return "SELECT " + col + ", COUNT(*) FROM " + table + " GROUP BY " + col
	case strings.Contains(q, "how many"):
		return "SELECT COUNT(*) FROM " + table
	case strings.Contains(q, "average"):
		return "SELECT AVG(" + guessColumn(q) + ") FROM " + table
	case strings.Contains(q, "total") || strings.Contains(q, "sum"):
		return "SELECT SUM(" + guessColumn(q) + ") FROM " + table
	default:
		return "SELECT * FROM " + table + " LIMIT 10"
	}
}

func guessColumn(q string) string {
	for _, c := range []string{"amount", "price", "revenue", "quantity", "value"} {
		if strings.Contains(q, c) {
			return c
		}
	}
	return "amount"
}

func guessGroup(q string) string {
	for _, c := range []string{"region", "category", "city", "year"} {
		if strings.Contains(q, c) {
			return c
		}
	}
	return "region"
}

// StartLLMService serves the LLM stub on a loopback port.
func StartLLMService(l *LLMService) (*Server, error) { return serve(l) }

// ---------------------------------------------------------------------
// SQL database service

// SQLService exposes a sqlmini database over HTTP: POST /query with the
// SQL statement as the body returns a JSON object {columns, rows}.
type SQLService struct {
	DB *sqlmini.DB
}

// ServeHTTP executes the posted statement.
func (s *SQLService) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	res, err := s.DB.Exec(string(body))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	out := struct {
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}{Columns: res.Columns}
	for _, row := range res.Rows {
		var cells []string
		for _, v := range row {
			cells = append(cells, v.String())
		}
		out.Rows = append(out.Rows, cells)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// StartSQLService serves the database on a loopback port.
func StartSQLService(s *SQLService) (*Server, error) { return serve(s) }
